"""Command-line front end: lattice counts, spectrum experiments, layer sweeps, selftest.

Exit codes: 0 success, 1 internal error, 2 invalid input, 3 missing data.
Each subcommand declares only the options it reads (README lists them), and
every one takes --json-summary and --config.  Flags override values from an
optional flat `key = value` config file whose keys are the subcommand's option
names (`bound_v` for --bound-v); any other flag or key exits 2.

Each run builds one `RunSummary` (effective parameters, seed where one is
read, every slope fit with the range it used, printed results, warnings) and
writes it as `<out>.summary` (spectrum), `<out-dir>/layers.summary` (layers)
and the --json-summary file, all rendered by `data`.  Warnings also go to
stderr as `warning: ...`; stdout carries only the results.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, lattice, population, selfcheck, simulate, spectral
from .data import read_cifar10, write_run_summary, write_run_summary_json, write_spectrum_csv
from .lattice import BudgetExceededError
from .records import RunSummary, SpectrumEstimate

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_MISSING_DATA = 3


class CLIError(Exception):
    """Invalid input; maps to exit code 2."""


class MissingDataError(Exception):
    """A required dataset or file is absent; maps to exit code 3."""


def _parse_exponents(text: str) -> tuple[float, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(float(token))
        except ValueError:
            raise CLIError(f"bad exponent list {text!r}: token {token!r} is not a number")
    if not out:
        raise CLIError("empty exponent list")
    return tuple(out)


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise CLIError(f"bad widths list {text!r}")
    if not widths:
        raise CLIError("empty widths list")
    return widths


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CLIError(f"bad range {text!r}: expected LO..HI")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise CLIError(f"bad range {text!r}")


def _load_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise MissingDataError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for raw in p.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CLIError(f"config line without '=': {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _apply_config_file(args, path: str) -> None:
    """Fill every option not given as a flag from the config file.

    Keys are the option names of the subcommand (`bound_v` for --bound-v);
    any other key is an error, so a typo never drops a setting silently.
    """
    actions = args._options
    for key, raw in _load_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise CLIError(
                f"config key {key!r} is not an option of this subcommand "
                f"(known: {', '.join(sorted(actions))})"
            )
        if getattr(args, key) != action.default:  # the flag wins
            continue
        if action.nargs == 0:  # store_true
            value = raw.lower() in ("1", "true", "yes", "on")
        else:
            try:
                value = (action.type or str)(raw)
            except ValueError as exc:
                raise CLIError(f"config value {key} = {raw!r}: {exc}")
        setattr(args, key, value)


def _opt(args, name: str, default):
    """Option value from the flag or the config file, else default."""
    value = getattr(args, name, None)
    return default if value is None else value


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
    if summary_path is not None:
        write_run_summary(summary, summary_path)
    if args.json_summary:
        write_run_summary_json(summary, args.json_summary)


# --------------------------------------------------------------------------
# lattice


def cmd_lattice(args) -> int:
    pi = _opt(args, "pi", "1,1")
    exps = _parse_exponents(pi)
    X = args.X
    if X is None:
        raise CLIError("--X is required")
    ordered = args.ordered
    bound_v = args.bound_v
    exact = args.lattice_cmd == "count" or args.with_exact
    if bound_v is not None and not (ordered and exact):
        raise CLIError("--bound-v caps the coordinates of an ordered exact count; it needs --ordered"
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
    params = {"X": X, "pi": pi, "ordered": ordered, "bound_v": bound_v, extra: getattr(args, extra)}
    _emit_record(args, params=params, results=results)
    return EXIT_OK


def _asym_value(X: float, exps: tuple[float, ...], ordered: bool) -> float:
    if not ordered:
        return lattice.asymptotic_unordered(X, exps)
    first = exps[0]
    if any(a != first for a in exps):
        raise CLIError(
            "ordered asymptotics require equal exponents (unequal exponents "
            "admit only an upper-bound shape; see ordered_shape)"
        )
    return lattice.asymptotic_ordered_equal(X, first, len(exps))


# --------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    alpha = _opt(args, "alpha", 1.31)
    summary_path = f"{args.out}.summary" if args.out else None

    if args.spectrum_cmd == "hpi":
        pi = _opt(args, "pi", "1,1")
        exps = _parse_exponents(pi)
        parts = tuple(int(a) for a in exps)
        if any(p != a for p, a in zip(parts, exps)):
            raise CLIError("--pi must be positive integers for the tuple spectrum")
        v = _opt(args, "v", 5000)
        k = _opt(args, "k", 1000)
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
            params={"alpha": alpha, "v": v, "pi": pi, "k": k},
            results={"eigenvalue_count": len(top), "top_value": top_value, "truncated": top.truncated},
            warnings=warnings,
            summary_path=summary_path,
        )
        return EXIT_OK

    if args.spectrum_cmd == "theory":
        p = _opt(args, "p", 2)
        j_lo, j_hi = _parse_range(_opt(args, "j", "1..1000"))
        curve = population.theory_curve(p, alpha)
        scale = _opt(args, "C", curve.scale)
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
    seed = _opt(args, "seed", 0)
    problems: list[str] = []
    v = _opt(args, "v", 1000)
    d = _opt(args, "d", v)
    m = _opt(args, "m", 20000)
    if v < 1:
        problems.append(f"v must be >= 1, got {v}")
    if d < 1 or d > v:
        problems.append(f"need 1 <= d <= v, got d={d}, v={v}")
    if not alpha > 1.0:
        problems.append(f"alpha must exceed 1, got {alpha}")
    if args.spectrum_cmd == "mc" and m < 100:
        problems.append(f"m must be >= 100, got {m}")
    threads = _opt(args, "threads", 1)  # only mc declares --threads
    if threads < 1:
        problems.append(f"threads must be >= 1, got {threads}")
    act_text = args.act
    p = args.p
    act = None
    if act_text is None:
        try:
            act = simulate.Activation("monomial", p if p is not None else 1)
        except ValueError as exc:
            problems.append(str(exc))
    elif p is not None:
        problems.append("give either --p or --act, not both")
    else:
        try:
            act = simulate.Activation.parse(act_text)
        except ValueError as exc:
            problems.append(str(exc))
    if args.spectrum_cmd == "exact":
        if act is not None and act.kind != "monomial":
            problems.append("the exact population route supports monomial activations")
        if p is not None and p > 6:
            problems.append(f"exact route supports p <= 6, got {p}")
    fit_lo, fit_hi = _parse_range(_opt(args, "fit", "5..100"))
    if not 1 <= fit_lo <= fit_hi:
        problems.append(f"bad fit range {fit_lo}..{fit_hi}")
    if problems:
        raise CLIError("invalid configuration:\n  " + "\n  ".join(problems))

    params = {"alpha": alpha, "v": v, "d": d, "act": act.label}
    if args.spectrum_cmd == "exact":
        H = population.PowerLawSpectrum(alpha, v)
        W = simulate.sample_sketch(v, d, seed)
        K = simulate.exact_population_covariance(W, H, act.param)
        eig = spectral.sym_eigenvalues(K)
    else:  # mc
        dist_text = _opt(args, "dist", "gaussian")
        cfg = simulate.RFConfig(
            v=v,
            d=d,
            m=m,
            alpha=alpha,
            activation=act,
            distribution=_parse_distribution(dist_text, args, m),
            seed=seed,
            centered=args.centered,
        )
        eig = simulate.mc_covariance(cfg, threads=threads).eigenvalues
        params.update(m=m, dist=dist_text, centered=args.centered, threads=threads)

    fit = spectral.slope_fit(eig, fit_lo, min(fit_hi, eig.size))
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


def _parse_distribution(text: str, args, m: int) -> simulate.DataDistribution:
    kind, _, param = text.partition(":")
    kind = kind.strip()
    if kind == "student_t":
        return simulate.DataDistribution("student_t", df=float(param) if param else 5.0)
    if kind == "cifar10":
        batches = selfcheck.find_cifar_batches(getattr(args, "data", None))
        if not batches:
            raise MissingDataError(
                "cifar10 distribution requested but no binary batches found; "
                "point --data (or PLRF_CIFAR10_DIR) at cifar-10-batches-bin/"
            )
        ds = read_cifar10(batches, limit=m)
        return simulate.DataDistribution("external", matrix=ds.values)
    try:
        return simulate.DataDistribution(kind)
    except ValueError as exc:
        raise CLIError(str(exc))


# --------------------------------------------------------------------------
# layers


def cmd_layers(args) -> int:
    seed = _opt(args, "seed", 0)
    alpha = _opt(args, "alpha", 1.31)
    widths = _parse_widths(_opt(args, "widths", "1024,1024,1024,1024"))
    act = simulate.Activation.parse(_opt(args, "act", "tanh"))
    norm = _opt(args, "norm", "none")
    fit_lo, fit_hi = _parse_range(_opt(args, "fit", "1..100"))
    n = _opt(args, "n", 4096)
    source = _opt(args, "data", "synthetic")

    params = {"data": source}
    if source == "synthetic":
        v = _opt(args, "v", 1024)
        params.update(v=v, alpha=alpha)
        H = population.PowerLawSpectrum(alpha, v)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(97,))))
        X = rng.standard_normal((n, v)) * np.sqrt(H.eigenvalues)
        tag = f"synthetic (alpha={alpha:g}, v={v})"
    else:
        base = Path(source)
        if not base.is_dir():
            raise MissingDataError(
                f"dataset directory not found: {source} "
                "(download the CIFAR-10 binary version and unpack cifar-10-batches-bin/)"
            )
        batches = selfcheck.find_cifar_batches(base)
        if not batches:
            raise MissingDataError(f"no *.bin batches under {source}")
        X = read_cifar10(batches, limit=n).values
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


def _add_common(parser: argparse.ArgumentParser, *, seed: bool, out: bool) -> None:
    parser.allow_abbrev = False  # else layers would take --out as --out-dir
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    if out:
        parser.add_argument("--out", default=None, help="write primary output to this path")
    parser.add_argument("--json-summary", default=None, help="write a JSON run summary here")
    parser.add_argument("--config", default=None, help="flat key = value config file")
    # the options a config file may set: every flag of this subcommand but --config
    parser.set_defaults(_options={
        a.dest: a for a in parser._actions if a.dest not in ("help", "config")
    })


_SPECTRUM_FLAGS = {
    "v": {"type": int, "help": "ambient dimension"},
    "d": {"type": int, "help": "sketch dimension (default v)"},
    "m": {"type": int, "help": "Monte Carlo samples (default 20000)"},
    "p": {"type": int, "help": "monomial degree"},
    "act": {"type": str, "help": "activation, e.g. tanh, monomial:2"},
    "dist": {"type": str, "help": "gaussian (default) | rademacher | student_t:NU | cifar10"},
    "data": {"type": str, "help": "dataset dir for --dist cifar10"},
    "fit": {"type": str, "help": "slope fit range (default 5..100)"},
    "centered": {"action": "store_true", "help": "subtract the feature mean"},
    "threads": {"type": int, "help": "threads for sample blocks (default 1); same output"},
    "pi": {"type": str, "help": "composition, e.g. 1,1 (default 1,1)"},
    "k": {"type": int, "help": "top-k size (default 1000)"},
    "j": {"type": str, "help": "index range, e.g. 1..1000"},
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
        p.add_argument("--pi", type=str, default=None, help="comma-separated exponents (default 1,1)")
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
    for name, help_text, flags in (
        ("mc", "Monte Carlo feature covariance", "v d m p act dist data fit centered threads"),
        ("exact", "exact population covariance (monomials)", "v d p act fit"),
        ("hpi", "top-k tuple-product population spectrum", "v pi k"),
        ("theory", "counting-curve prediction", "p j C"),
    ):
        p = spec_sub.add_parser(name, help=help_text)
        p.add_argument("--alpha", type=float, default=None, help="spectral exponent (default 1.31)")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_SPECTRUM_FLAGS[flag])
        p.add_argument("--normalized-out", default=None, help="also write top-normalized CSV")
        _add_common(p, seed=name in ("mc", "exact"), out=True)
        p.set_defaults(func=cmd_spectrum)

    lay = sub.add_parser("layers", help="propagate data through random layers")
    lay.add_argument("--data", type=str, default=None, help="'synthetic' or a CIFAR-10 dir")
    lay.add_argument("--widths", type=str, default=None, help="e.g. 1024,1024,1024,1024")
    lay.add_argument("--act", type=str, default=None, help="activation (default tanh)")
    lay.add_argument("--norm", type=str, default=None, help="none | rmsnorm | layernorm")
    lay.add_argument("--n", type=int, default=None, help="sample count (default 4096)")
    lay.add_argument("--v", type=int, default=None, help="synthetic input dimension")
    lay.add_argument("--alpha", type=float, default=None, help="synthetic spectral exponent")
    lay.add_argument("--fit", type=str, default=None, help="slope fit range (default 1..100)")
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
    args._started = time.monotonic()  # elapsed_ms of the run record counts from here
    try:
        if args.config:
            _apply_config_file(args, args.config)
        return args.func(args)
    except (CLIError, BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
