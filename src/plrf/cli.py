"""Command-line front end: lattice counts, spectrum experiments, layer sweeps, selftest.

Exit codes: 0 success, 2 invalid input (any `plrf.InvalidInput`, which
`BudgetExceededError` and `SchemaError` are), 3 missing data, and 1 for any
other exception, a bare `ValueError` included, as an internal error.
Each subcommand declares only the options it reads, each with its default
(README lists them; --help shows them), and every one takes --json-summary and
--config.  Flags override values from an optional flat `key = value` config
file whose keys are the subcommand's option names (`bound_v` for --bound-v);
any other flag or key exits 2.

Each run builds one `RunSummary` (effective parameters, seed where one is
read, every slope fit with the range it used, printed results, warnings) and
writes it as `<out>.summary` (spectrum), `<out-dir>/layers.summary` (layers)
and the --json-summary file, the same JSON bytes rendered by `data`.
Warnings also go to stderr as `warning: ...`; stdout carries only the results.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, lattice, population, selfcheck, simulate, spectral
from .data import find_cifar_batches, read_cifar10, write_run_summary, write_spectrum_csv
from .errors import InvalidInput
from .records import RunSummary, SpectrumEstimate

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_MISSING_DATA = 3


def _parse_exponents(text: str) -> tuple[float, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(float(token))
        except ValueError:
            raise InvalidInput(f"bad exponent list {text!r}: token {token!r} is not a number")
    if not out:
        raise InvalidInput("empty exponent list")
    return tuple(out)


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise InvalidInput(f"bad widths list {text!r}")
    if not widths:
        raise InvalidInput("empty widths list")
    return widths


def _parse_range(text: str, name: str) -> tuple[int, int]:
    """Parse LO..HI with 1 <= LO <= HI; errors name the range."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InvalidInput(f"bad {name} range {text!r}: expected LO..HI")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InvalidInput(f"bad {name} range {text!r}")
    if not 1 <= lo <= hi:
        raise InvalidInput(f"bad {name} range {lo}..{hi}: need 1 <= lo <= hi")
    return lo, hi


def _load_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for raw in p.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidInput(f"config line without '=': {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _config_defaults(args, path: str) -> dict[str, object]:
    """The config file's values, to become the subcommand's defaults.

    Keys are the option names of the subcommand (`bound_v` for --bound-v);
    any other key is an error, so a typo never drops a setting silently.
    Values stay strings, which argparse converts with the option's type.
    """
    actions = args._options
    values: dict[str, object] = {}
    for key, raw in _load_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise InvalidInput(
                f"config key {key!r} is not an option of this subcommand "
                f"(known: {', '.join(sorted(actions))})"
            )
        values[key] = raw.lower() in ("1", "true", "yes", "on") if action.nargs == 0 else raw
    return values


def _write_spectra(args, eigenvalues: np.ndarray) -> None:
    """Write --out and --normalized-out, each whenever it is given."""
    if args.out:
        write_spectrum_csv(SpectrumEstimate(eigenvalues, (), 0, "", 0), args.out)
        print(f"wrote {len(eigenvalues)} eigenvalues to {args.out}")
    if args.normalized_out:
        normalized = spectral.normalize_top(eigenvalues)
        write_spectrum_csv(SpectrumEstimate(normalized, (), 0, "", 0), args.normalized_out)
        print(f"wrote normalized spectrum to {args.normalized_out}")


def _fit_warnings(fit, requested: tuple[int, int], size: int, where: str = "") -> list[str]:
    """Warn when a fit reaches past half of its `size`-long spectrum.

    There the tail bends with the rank or the sample count, not the power law.
    """
    if 2 * fit.j_max <= size:
        return []
    return [
        f"{where}fit range j = {requested[0]}..{requested[1]} (effective {fit.j_min}..{fit.j_max}) "
        f"reaches past half of the {size} eigenvalues, where the tail is rank- or sample-limited"
    ]


def _emit_record(args, *, params, results, seed=None, fits=(), warnings=(), summary_path=None) -> None:
    """Build the run's one RunSummary, print its warnings, write its renderings."""
    names = ("command", "lattice_cmd", "spectrum_cmd")
    summary = RunSummary(
        command=" ".join(getattr(args, name) for name in names if hasattr(args, name)),
        params=params,
        seed=seed,
        fits=tuple(fits),
        results=results,
        warnings=tuple(warnings),
        elapsed_ms=int(1000 * (time.monotonic() - args._started)),
        version=__version__,
    )
    for warning in summary.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for path in (summary_path, args.json_summary):
        if path:
            write_run_summary(summary, path)


# --------------------------------------------------------------------------
# lattice


def cmd_lattice(args) -> int:
    exps = _parse_exponents(args.pi)
    X = args.X
    if X is None:
        raise InvalidInput("--X is required")
    ordered = args.ordered
    bound_v = args.bound_v
    exact = args.lattice_cmd == "count" or args.with_exact
    if bound_v is not None and not (ordered and exact):
        raise InvalidInput("--bound-v caps the coordinates of an ordered exact count; it needs --ordered"
                       + ("" if exact else " and --with-exact"))

    def exact_count() -> int:
        if ordered:
            return lattice.count_ordered(X, exps, bound_v=bound_v).count
        return lattice.count_unordered(X, exps).count

    results: dict[str, object] = {}
    if args.lattice_cmd == "count":
        results["count"] = exact_count()
        if args.with_asym:
            results["asymptotic"] = _asym_value(X, exps, ordered)
    else:  # asym
        results["asymptotic"] = _asym_value(X, exps, ordered)
        if args.with_exact:
            results["count"] = exact_count()
    if len(results) == 2:
        results["ratio"] = results["count"] / results["asymptotic"]
    text = "\n".join(f"{key} = {value!r}" for key, value in results.items())
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    extra = "with_asym" if args.lattice_cmd == "count" else "with_exact"
    params = {"X": X, "pi": args.pi, "ordered": ordered, "bound_v": bound_v, extra: getattr(args, extra)}
    _emit_record(args, params=params, results=results)
    return EXIT_OK


def _asym_value(X: float, exps: tuple[float, ...], ordered: bool) -> float:
    if not ordered:
        return lattice.asymptotic_unordered(X, exps)
    first = exps[0]
    if any(a != first for a in exps):
        raise InvalidInput(
            "ordered asymptotics require equal exponents (unequal exponents "
            "admit only an upper-bound shape; see ordered_shape)"
        )
    return lattice.asymptotic_ordered_equal(X, first, len(exps))


# --------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    alpha = args.alpha
    summary_path = f"{args.out}.summary" if args.out else None

    if args.spectrum_cmd == "hpi":
        exps = _parse_exponents(args.pi)
        if not all(a.is_integer() for a in exps):
            raise InvalidInput("--pi must be positive integers for the tuple spectrum")
        parts = tuple(int(a) for a in exps)
        v, k = args.v, args.k
        H = population.PowerLawSpectrum(alpha, v)
        top = population.hpi_top_k(H, parts, k)
        _write_spectra(args, top.values())
        top_value = float(top[0].value)
        print(f"top value = {top_value!r} at indices {top[0].indices}")
        warnings = []
        if top.truncated:
            warnings.append(f"top-k is truncated: {len(top)} of k = {k} tuples, all v = {v} admits")
        _emit_record(
            args,
            params={"alpha": alpha, "v": v, "pi": args.pi, "k": k},
            results={"eigenvalue_count": len(top), "top_value": top_value, "truncated": top.truncated},
            warnings=warnings,
            summary_path=summary_path,
        )
        return EXIT_OK

    if args.spectrum_cmd == "theory":
        p = args.p
        j_lo, j_hi = _parse_range(args.j, "j")
        curve = population.theory_curve(p, alpha)
        scale = curve.scale if args.C is None else args.C
        eps = population.predicted_spectrum(curve, scale, range(j_lo, j_hi + 1))
        _write_spectra(args, eps)
        print(f"N(u) inverted over j={j_lo}..{j_hi}; b_theory = {curve.b_theory!r}")
        _emit_record(
            args,
            params={"alpha": alpha, "p": p, "j": f"{j_lo}..{j_hi}", "C": scale},
            results={"eigenvalue_count": len(eps), "b_theory": curve.b_theory},
            summary_path=summary_path,
        )
        return EXIT_OK

    # mc / exact need dimensions and an activation; collect every config
    # problem before exiting so one fix-up pass suffices
    seed = args.seed
    problems: list[str] = []
    v = args.v
    d = v if args.d is None else args.d
    if v < 1:
        problems.append(f"v must be >= 1, got {v}")
    if d < 1 or d > v:
        problems.append(f"need 1 <= d <= v, got d={d}, v={v}")
    if not alpha > 1.0:
        problems.append(f"alpha must exceed 1, got {alpha}")
    if args.spectrum_cmd == "mc":
        if args.m < simulate.MIN_MC_SAMPLES:
            problems.append(f"m must be >= {simulate.MIN_MC_SAMPLES}, got {args.m}")
        if args.threads is not None and args.threads < 1:
            problems.append(f"threads must be >= 1, got {args.threads}")
        size = min(args.m, d)
        if size > spectral.MAX_EIG_DIM:
            problems.append(f"min(m, d) = {size} exceeds the eigensolver's cap of {spectral.MAX_EIG_DIM}")
        if args.data is not None and args.dist.partition(":")[0].strip() != "cifar10":
            problems.append(f"--data is read only with --dist cifar10, got --dist {args.dist}")
    act_text = args.act
    p = args.p
    act = None
    if act_text is None:
        try:
            act = simulate.Activation("monomial", p if p is not None else 1)
        except InvalidInput as exc:
            problems.append(str(exc))
    elif p is not None:
        problems.append("give either --p or --act, not both")
    else:
        try:
            act = simulate.Activation.parse(act_text)
        except InvalidInput as exc:
            problems.append(str(exc))
    if args.spectrum_cmd == "exact":
        if act is not None and act.kind != "monomial":
            problems.append("the exact population route supports monomial activations")
        elif act is not None and act.param > simulate.MAX_EXACT_DEGREE:
            problems.append(f"exact route supports p <= {simulate.MAX_EXACT_DEGREE}, got {act.param}")
        if d > simulate.MAX_EXACT_DIM:
            problems.append(f"exact route supports d <= {simulate.MAX_EXACT_DIM}, got {d}")
    try:
        fit_lo, fit_hi = _parse_range(args.fit, "fit")
    except InvalidInput as exc:
        problems.append(str(exc))
    else:  # the spectrum has min(m, d) eigenvalues for mc, d for exact
        size = min(args.m, d) if args.spectrum_cmd == "mc" else d
        if 1 <= size < fit_lo:
            problems.append(f"fit range {fit_lo}..{fit_hi} starts past the spectrum's {size} eigenvalues")
    if problems:
        raise InvalidInput("invalid configuration:\n  " + "\n  ".join(problems))

    params = {"alpha": alpha, "v": v, "d": d, "act": act.label}
    if args.spectrum_cmd == "exact":
        H = population.PowerLawSpectrum(alpha, v)
        # the sketch is spent once K is built: it goes before the eigensolve
        K = simulate.exact_population_covariance(simulate.sample_sketch(v, d, seed), H, act.param)
        eig = spectral.sym_eigenvalues(K)
    else:  # mc
        cfg = simulate.RFConfig(
            v=v,
            d=d,
            m=args.m,
            alpha=alpha,
            activation=act,
            distribution=_parse_distribution(args.dist, args.data, args.m),
            seed=seed,
            centered=args.centered,
        )
        est = simulate.mc_covariance(cfg, threads=args.threads)
        eig = est.eigenvalues
        params.update(
            m=args.m, dist=args.dist, centered=args.centered,
            threads=int(est.meta["workers"]), block_rows=int(est.meta["block_rows"]),
        )

    fit = spectral.clamped_slope_fit(eig, fit_lo, fit_hi)
    _write_spectra(args, eig)
    print(f"slope = {fit.slope:.6f}  r2 = {fit.r_squared:.6f}  (j = {fit.j_min}..{fit.j_max})")
    _emit_record(
        args,
        params=params,
        seed=seed,
        fits=(fit,),
        results={"eigenvalue_count": eig.size},
        warnings=_fit_warnings(fit, (fit_lo, fit_hi), eig.size),
        summary_path=summary_path,
    )
    return EXIT_OK


def _parse_distribution(text: str, data_dir: str | None, m: int) -> simulate.DataDistribution:
    kind, _, param = text.partition(":")
    kind = kind.strip()
    if kind == "student_t":
        try:
            df = float(param) if param else 5.0
        except ValueError:
            raise InvalidInput(f"bad --dist {text!r}: NU in student_t:NU must be a number, got {param!r}")
        return simulate.DataDistribution("student_t", df=df)
    if kind == "cifar10":
        X = read_cifar10(find_cifar_batches(data_dir), limit=m)
        return simulate.DataDistribution("external", matrix=X)
    return simulate.DataDistribution(kind)


# --------------------------------------------------------------------------
# layers


def cmd_layers(args) -> int:
    seed, alpha, norm, n, source = args.seed, args.alpha, args.norm, args.n, args.data
    widths = _parse_widths(args.widths)
    act = simulate.Activation.parse(args.act)
    fit_lo, fit_hi = _parse_range(args.fit, "fit")
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")

    params = {"data": source}
    if source == "synthetic":
        v = args.v
        params.update(v=v, alpha=alpha)
        H = population.PowerLawSpectrum(alpha, v)
        X = simulate._stream(seed, simulate._SYNTHETIC).standard_normal((n, v)) * np.sqrt(H.eigenvalues)
        tag = f"synthetic (alpha={alpha:g}, v={v})"
    else:
        X = read_cifar10(find_cifar_batches(source), limit=n)
        tag = f"cifar10 ({X.shape[0]} rows)"

    layers = [simulate.LayerSpec(w, act, norm) for w in widths]
    layer_results = simulate.propagate_layers(X, layers, seed=seed, fit_range=(fit_lo, fit_hi))

    print(f"data: {tag}")
    print(f"{'layer':>5} {'dim':>6} {'slope':>9} {'r2':>7}  norm={norm}")
    out_dir = Path(args.out_dir) if args.out_dir else None
    warnings = []
    for t, (est, fit) in enumerate(layer_results, start=1):
        print(f"{t:>5} {est.dims[1]:>6} {fit.slope:>9.4f} {fit.r_squared:>7.4f}")
        warnings += _fit_warnings(fit, (fit_lo, fit_hi), est.eigenvalues.size, f"layer {t}: ")
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_spectrum_csv(est, out_dir / f"layer_{t}.csv")
    _emit_record(
        args,
        params={**params, "widths": ",".join(str(w) for w in widths), "act": act.label,
                "norm": norm, "n": X.shape[0]},
        seed=seed,
        fits=[fit for _, fit in layer_results],
        results={},
        warnings=warnings,
        summary_path=out_dir / "layers.summary" if out_dir else None,
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    results = selfcheck.run_all(quick=args.quick, data_dir=args.data)
    statuses = {}
    for res in results:
        status = "SKIP" if res.passed is None else "PASS" if res.passed else "FAIL"
        statuses[res.criterion] = status
        print(f"{status}  criterion {res.criterion}: {res.detail}")
    counts = list(statuses.values())
    failed, skipped = counts.count("FAIL"), counts.count("SKIP")
    print(f"{len(results)} criteria: {len(results) - failed - skipped} passed, {skipped} skipped, "
          f"{failed} failed" + (" (quick mode)" if args.quick else ""))
    _emit_record(args, params={"quick": args.quick, "data": args.data}, results=statuses)
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


# --------------------------------------------------------------------------


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Append each option's default to its help, unless there is none to show."""

    def _get_help_string(self, action):
        if action.default is None or action.default is False:
            return action.help
        return super()._get_help_string(action)


def _add_common(parser: argparse.ArgumentParser, *, seed: bool, out: bool) -> None:
    parser.allow_abbrev = False  # else layers would take --out as --out-dir
    parser.formatter_class = _HelpFormatter
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    if out:
        parser.add_argument("--out", default=None, help="write primary output to this path")
    parser.add_argument("--json-summary", default=None, help="write a JSON run summary here")
    parser.add_argument("--config", default=None, help="flat key = value config file")
    # the options a config file may set: every flag of this subcommand but --config
    parser.set_defaults(_parser=parser, _options={
        a.dest: a for a in parser._actions if a.dest not in ("help", "config")
    })


_SPECTRUM_FLAGS = {
    "v": {"type": int, "default": 1000, "help": "ambient dimension"},
    "d": {"type": int, "help": "sketch dimension (default: v)"},
    "m": {"type": int, "default": 20000, "help": "Monte Carlo samples"},
    "p": {"type": int, "help": "monomial degree"},
    "act": {"type": str,
            "help": "activation, e.g. tanh, monomial:2 (default: monomial of degree p, else 1)"},
    "dist": {"type": str, "default": "gaussian",
             "help": "gaussian | rademacher | student_t:NU | cifar10"},
    "data": {"type": str, "help": "dataset dir for --dist cifar10"},
    "fit": {"type": str, "default": "5..100", "help": "slope fit range"},
    "centered": {"action": "store_true", "help": "subtract the feature mean"},
    "threads": {"type": int,
                "help": "cpus for sampling: one worker thread each, every worker on one BLAS thread "
                        "when a run can have two (default: the usable cpu count); same output"},
    "pi": {"type": str, "default": "1,1", "help": "composition, e.g. 1,1"},
    "k": {"type": int, "default": 1000, "help": "top-k size"},
    "j": {"type": str, "default": "1..1000", "help": "index range LO..HI"},
    "C": {"type": float, "help": "scale constant (default: the curve's own)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrf",
        description="Power-law random features: lattice counts, spectra, layer sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"plrf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="exact and asymptotic lattice-point counts")
    lat_sub = lat.add_subparsers(dest="lattice_cmd", required=True)
    for name, help_text in (("count", "exact count"), ("asym", "leading-order asymptotic")):
        p = lat_sub.add_parser(name, help=help_text)
        p.add_argument("--X", type=float, default=None, help="product bound (required)")
        p.add_argument("--pi", type=str, default="1,1", help="comma-separated exponents")
        p.add_argument("--ordered", action="store_true", help="strictly increasing tuples")
        p.add_argument("--bound-v", type=int, default=None, help="cap coordinates at v")
        if name == "count":
            p.add_argument("--with-asym", action="store_true", help="also print asymptotic+ratio")
        else:
            p.add_argument("--with-exact", action="store_true", help="also print count+ratio")
        _add_common(p, seed=False, out=True)
        p.set_defaults(func=cmd_lattice)

    spec = sub.add_parser("spectrum", help="eigenvalue spectra: mc, exact, hpi, theory")
    spec_sub = spec.add_subparsers(dest="spectrum_cmd", required=True)
    for name, help_text, flags, defaults in (
        ("mc", "Monte Carlo feature covariance", "v d m p act dist data fit centered threads", {}),
        ("exact", "exact population covariance (monomials)", "v d p act fit", {}),
        ("hpi", "top-k tuple-product population spectrum", "v pi k", {"v": 5000}),
        ("theory", "counting-curve prediction", "p j C", {"p": 2}),
    ):
        p = spec_sub.add_parser(name, help=help_text)
        p.add_argument("--alpha", type=float, default=1.31, help="spectral exponent")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_SPECTRUM_FLAGS[flag])
        p.add_argument("--normalized-out", default=None, help="also write top-normalized CSV")
        p.set_defaults(**defaults)
        _add_common(p, seed=name in ("mc", "exact"), out=True)
        p.set_defaults(func=cmd_spectrum)

    lay = sub.add_parser("layers", help="propagate data through random layers")
    lay.add_argument("--data", type=str, default="synthetic", help="'synthetic' or a CIFAR-10 dir")
    lay.add_argument("--widths", type=str, default="1024,1024,1024,1024", help="layer widths")
    lay.add_argument("--act", type=str, default="tanh", help="activation")
    lay.add_argument("--norm", type=str, default="none", help="none | rmsnorm | layernorm")
    lay.add_argument("--n", type=int, default=4096, help="sample count")
    lay.add_argument("--v", type=int, default=1024, help="synthetic input dimension")
    lay.add_argument("--alpha", type=float, default=1.31, help="synthetic spectral exponent")
    lay.add_argument("--fit", type=str, default="1..100", help="slope fit range")
    lay.add_argument("--out-dir", default=None, help="write per-layer CSVs and a summary here")
    _add_common(lay, seed=True, out=False)
    lay.set_defaults(func=cmd_layers)

    st = sub.add_parser("selftest", help="run the acceptance battery")
    st.add_argument("--quick", action="store_true", help="reduced scale, finishes in seconds")
    st.add_argument("--data", type=str, default=None, help="CIFAR-10 dir for criterion 11")
    _add_common(st, seed=False, out=False)
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()  # elapsed_ms of the run record counts from here
    try:
        if args.config:  # file values become defaults, so flags parsed again still win
            args._parser.set_defaults(**_config_defaults(args, args.config))
            args = parser.parse_args(argv)
        args._started = started
        return args.func(args)
    except InvalidInput as exc:  # BudgetExceededError and SchemaError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except Exception as exc:  # a bare ValueError included: a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
