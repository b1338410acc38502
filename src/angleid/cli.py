"""Command-line surface: generate, estimate, histogram, trails, validate.

All data exchange is CSV on explicit paths; diagnostics (including the
effective seed of every run) go to standard error so standard output
stays machine-readable. Identical invocations produce byte-identical
output files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import warnings

import numpy as np

# analysis, angle_id, synth and theory are imported by the commands that
# call them, so each command loads only its own modules.
from .core import (
    ESTIMATOR_TAGS,
    SHAPES,
    AngleIdError,
    CsvFormatError,
    DataMatrix,
    load_csv,
    write_csv,
    _adopt,
    _check_delimiter as _delimiter_rule,
    _check_k_values,
    _read_csv,
    _rng,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AngleIdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    code = main()
    # Every object the run made moves to the permanent generation, so the
    # interpreter's final collections skip them; shutdown still closes
    # files, flushes streams and runs atexit handlers.
    gc.freeze()
    sys.exit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angleid",
        description="Angle-based local intrinsic dimensionality estimation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    gen.add_argument("--shape", required=True, choices=SHAPES)
    gen.add_argument("--n", type=int, help="point count (shapes with a free size)")
    gen.add_argument("--d", type=int, help="dimension for ball/sphere/gaussian")
    # Shape parameters, under synth's names: an option not given is left
    # to synth's default, and one the shape does not take is ignored.
    gen.add_argument("--depth", type=int, help="koch recursion depth (default 6)")
    gen.add_argument("--dims", type=int, help="lattice dimensions (default 8)")
    gen.add_argument("--jitter-max", type=float, help="lattice jitter (default 1/3)")
    gen.add_argument("--levels", help="comma-separated lattice levels (default 0,1/3,2/3,1)")
    gen.add_argument("--max-dim", type=int, help="largest nested cube (default 5)")
    gen.add_argument("--n-per-cube", type=int, help="points per nested cube (default 5000)")
    gen.add_argument("--rotate", action="store_true", default=None,
                     help="apply one random global rotation (nested_cubes)")
    gen.add_argument("--offset", type=float, dest="h",
                     help="query offset h (offset_disc, default 0)")
    gen.add_argument("--length", type=float, help="segment length (line, default 1)")
    gen.add_argument("--width-ratio", type=float, help="line width / length (default 0.04)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    # The options estimate and trails share, declared once.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True)
    shared.add_argument("--delimiter", default=",")
    shared.add_argument("--header", action="store_true", help="input has a header row to skip")
    shared.add_argument("--label-column", action="store_true",
                        help="treat the trailing input column as a label, not a coordinate")
    shared.add_argument("--points", type=int, default=None,
                        help="estimate only this many query points (seeded subsample)")
    shared.add_argument("--subsample-seed", type=int, default=0)
    shared.add_argument("--threads", type=int, default=1,
                        help="threads that parse the input and run the estimates (default 1); "
                             "results never depend on it")
    shared.add_argument("-o", "--output", required=True)

    est = sub.add_parser("estimate", parents=[shared], help="per-point ID estimates as CSV")
    est.add_argument("--k", type=int, required=True)
    est.add_argument("--estimators", default="abid,rabid",
                     help=f"comma-separated tags from {','.join(ESTIMATOR_TAGS)}")
    est.add_argument("--ged-pair", default=None, help="explicit k1,k2 for the ged estimator")
    est.add_argument("--with-diagnostics", action="store_true",
                     help="append mean_cosine and flags columns")
    est.set_defaults(func=cmd_estimate)

    hist = sub.add_parser("histogram", help="histogram one estimate column")
    hist.add_argument("--input", required=True, help="estimate table CSV")
    hist.add_argument("--column", required=True)
    hist.add_argument("--bin-width", type=float, required=True)
    hist.add_argument("--origin", type=float, default=0.0)
    hist.add_argument("--x-min", type=float, default=None,
                      help="clip values below (presentation only)")
    hist.add_argument("--x-max", type=float, default=None,
                      help="clip values above (presentation only)")
    hist.add_argument("--delimiter", default=",")
    hist.add_argument("-o", "--output", required=True)
    hist.set_defaults(func=cmd_histogram)

    tr = sub.add_parser("trails", parents=[shared], help="per-point estimates across k values")
    tr.add_argument("--estimator", default="abid", choices=ESTIMATOR_TAGS)
    tr.add_argument("--k-min", type=int)
    tr.add_argument("--k-max", type=int)
    tr.add_argument("--k-step", type=int)
    tr.add_argument("--k-values", default=None, help="explicit comma-separated k list")
    tr.set_defaults(func=cmd_trails)

    val = sub.add_parser("validate", help="run the statistical self-checks")
    val.add_argument("--d", type=int, default=5)
    val.add_argument("--samples", type=int, default=100_000)
    val.add_argument("--ks-samples", type=int, default=10_000)
    val.add_argument("--seed", type=int, default=1)
    val.set_defaults(func=cmd_validate)

    return parser


def _check_seed(flag: str, seed: int) -> None:
    if seed < 0:
        raise UsageError(f"{flag} must be >= 0, got {seed}")


def _check_delimiter(args) -> None:
    """The library's delimiter rule (``core._check_delimiter``) for the file this command writes."""
    try:
        _delimiter_rule(args.delimiter, vars(args).get("with_diagnostics", False))
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None


def _load_queries(args) -> tuple[DataMatrix, list[int] | None]:
    """Check every shared flag, then read the input: (data, query subsample or None for all)."""
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    _check_seed("--subsample-seed", args.subsample_seed)
    _check_delimiter(args)
    if args.points is not None and args.points < 1:
        raise UsageError("--points must be >= 1")
    data = load_csv(args.input, delimiter=args.delimiter, skip_header=args.header,
                    threads=args.threads)
    if args.label_column:
        if data.dim < 2:
            raise UsageError("--label-column needs at least 2 input columns")
        data = _adopt(DataMatrix, points=data.points[:, :-1])
    count, n, seed = args.points, data.n, args.subsample_seed
    if count is None or count >= n:
        return data, None
    picked = np.sort(_rng(seed).choice(n, size=count, replace=False))
    print(f"subsample: {count} of {n} query points (seed={seed})", file=sys.stderr)
    return data, picked.tolist()


def cmd_generate(args) -> int:
    from . import synth

    try:
        spec = synth.GeneratorSpec(shape=args.shape, n=args.n, seed=args.seed,
                                   params=_shape_params(args))
        out = synth.generate(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    matrix = out.matrix
    if out.query is not None:
        # Append the query point as the final row so the whole scenario
        # round-trips through one file; its index is n-1.
        matrix = DataMatrix(np.vstack([matrix.points, out.query]))
        print("query point appended as the last row", file=sys.stderr)
    if out.labels is not None:
        matrix = DataMatrix(np.column_stack([matrix.points, out.labels]))
    write_csv(matrix, args.output)
    print(f"shape={spec.shape} n={matrix.n} D={out.matrix.dim} seed={spec.seed}", file=sys.stderr)
    return EXIT_OK


def _shape_params(args) -> dict:
    """The shape options given, by synth's names; ``synth.generate`` checks them."""
    params = {name: value for name, value in vars(args).items() if value is not None
              and name not in ("command", "func", "shape", "n", "seed", "output")}
    if "levels" in params:
        params["levels"] = _parse_list(params["levels"], "--levels", float)
    return params


def cmd_estimate(args) -> int:
    from . import angle_id

    ged_pair = None
    if args.ged_pair is not None:
        ged_pair = tuple(_parse_list(args.ged_pair, "--ged-pair", int))
    try:
        tags = angle_id._check_tags(t.strip() for t in args.estimators.split(",") if t.strip())
        _check_k_values([args.k], tags, ged_pair)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    data, queries = _load_queries(args)
    # The library warns once per row; the CLI prints one line with the count.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", angle_id.NeighborhoodSizeWarning)
        table = angle_id.estimate_table(
            data,
            args.k,
            estimators=tags,
            queries=queries,
            ged_pair=ged_pair,
            with_diagnostics=args.with_diagnostics,
            threads=args.threads,
        )
    small = []
    for w in caught:
        if issubclass(w.category, angle_id.NeighborhoodSizeWarning):
            small.append(w)
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    if small:
        print(f"warning: {small[0].message} on {len(small)} of {len(table)} query points",
              file=sys.stderr)
    write_csv(table, args.output, delimiter=args.delimiter)
    print(f"estimated {len(table)} points at k={args.k}: {','.join(tags)}", file=sys.stderr)
    return EXIT_OK


def cmd_histogram(args) -> int:
    from . import analysis

    if not 0 < args.bin_width < math.inf:
        raise UsageError(f"--bin-width must be positive and finite, got {args.bin_width}")
    if not math.isfinite(args.origin):
        raise UsageError(f"--origin must be finite, got {args.origin}")
    for flag, bound in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if bound is not None and math.isnan(bound):
            raise UsageError(f"{flag} must not be NaN")
    if None not in (args.x_min, args.x_max) and args.x_min > args.x_max:
        raise UsageError(f"--x-min {args.x_min} is above --x-max {args.x_max}")
    _check_delimiter(args)
    values = _read_column(args.input, args.column, args.delimiter)
    if args.x_min is not None:
        values = values[values >= args.x_min]
    if args.x_max is not None:
        values = values[values <= args.x_max]
    if values.size == 0:
        raise CsvFormatError(args.input, None, "no values left to histogram")
    try:
        hist = analysis.histogram(values, args.bin_width, args.origin)
    except ValueError as exc:  # a bin index beyond int64
        raise CsvFormatError(args.input, None, str(exc)) from None
    analysis.write_histogram_csv(hist, args.output, delimiter=args.delimiter)
    print(f"histogram of {hist.n_total} values, mode at {hist.mode_center()}", file=sys.stderr)
    return EXIT_OK


def _read_column(path, column: str, delimiter: str) -> np.ndarray:
    try:
        return _read_csv(path, delimiter, column=column)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def cmd_trails(args) -> int:
    from . import analysis

    if args.k_values is not None:
        ks = _parse_list(args.k_values, "--k-values", int)
    else:
        if None in (args.k_min, args.k_max, args.k_step):
            raise UsageError("need --k-values or all of --k-min/--k-max/--k-step")
        if args.k_step < 1:
            raise UsageError(f"--k-step must be >= 1, got {args.k_step}")
        ks = list(range(args.k_min, args.k_max + 1, args.k_step))
    try:
        ks = _check_k_values(ks, [args.estimator])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    data, points = _load_queries(args)
    tm = analysis.trails(data, ks, args.estimator, point_subset=points, threads=args.threads)
    analysis.write_trails_csv(tm, args.output, delimiter=args.delimiter)
    print(f"trails for {len(tm.point_indices)} points at k={ks}", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.d < 2:
        raise UsageError("--d must be >= 2")
    if args.samples < 100 or args.ks_samples < 100:
        raise UsageError("need at least 100 samples")
    _check_seed("--seed", args.seed)
    print(f"validate: d={args.d} samples={args.samples} "
          f"ks_samples={args.ks_samples} seed={args.seed}", file=sys.stderr)
    checks = run_self_checks(args.d, args.samples, args.ks_samples, args.seed)
    print("check,statistic,threshold,status")
    failed = False
    for name, stat, threshold, ok in checks:
        failed |= not ok
        print(f"{name},{stat:.17g},{threshold:.17g},{'PASS' if ok else 'FAIL'}")
    if failed:
        bad = ",".join(name for name, _, _, ok in checks if not ok)
        print(f"validation failed: {bad}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def run_self_checks(d: int, samples: int, ks_samples: int, seed: int):
    """Moment, distribution, and gamma-identity self-checks.

    Returns (name, statistic, threshold, passed) tuples: the cosine moment
    law on ball samples, the KS fit of sphere-pair cosines against the
    closed-form cdf, and the Legendre duplication residual grid.
    """
    from . import theory
    from .synth import sample_ball, sample_sphere

    ball = sample_ball(2 * samples, d, seed).points
    cos_ball = _pair_cosines(ball)
    mean_res = abs(float(cos_ball.mean()))
    var_res = abs(d * float(cos_ball.var()) - 1.0)

    sphere = sample_sphere(2 * ks_samples, d, seed + 1).points
    cos_sphere = _pair_cosines(sphere)
    ks = theory.ks_statistic(cos_sphere, lambda x: theory.cosine_cdf(x, d))
    ks_threshold = theory.KS_CRITICAL_1PCT / np.sqrt(ks_samples)

    grid = np.arange(0.5, 20.0 + 0.25, 0.5)
    legendre = max(theory.legendre_identity_residual(float(x)) for x in grid)

    return [
        ("moment_mean", mean_res, 0.01, mean_res < 0.01),
        ("moment_variance", var_res, 0.05, var_res < 0.05),
        ("ks_cosine_law", ks, float(ks_threshold), ks < ks_threshold),
        ("legendre_identity", legendre, 1e-10, legendre < 1e-10),
    ]


def _pair_cosines(points: np.ndarray) -> np.ndarray:
    """Cosines about the origin of disjoint consecutive point pairs."""
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    unit = points / norms[:, None]
    return np.einsum("ij,ij->i", unit[0::2], unit[1::2])


def _parse_list(text: str, flag: str, kind) -> list:
    """The comma-separated values of ``text``, each read by ``kind`` (``float`` or ``int``)."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{flag} expects comma-separated {noun}, got {text!r}") from None
