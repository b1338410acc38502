"""Command-line surface: generate, estimate, histogram, trails, validate.

All data exchange is CSV on explicit paths; diagnostics (including the
effective seed of every run) go to standard error so standard output
stays machine-readable. Identical invocations produce byte-identical
output files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, angle_id, synth, theory
from .core import (
    ESTIMATOR_TAGS,
    AngleIdError,
    CsvFormatError,
    DataMatrix,
    load_csv,
    write_csv,
    _fmt,
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
    sys.exit(main())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angleid",
        description="Angle-based local intrinsic dimensionality estimation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    gen.add_argument("--shape", required=True, choices=synth.SHAPES)
    gen.add_argument("--n", type=int, help="point count (shapes with a free size)")
    gen.add_argument("--d", type=int, help="dimension for ball/sphere/gaussian")
    gen.add_argument("--depth", type=int, default=6, help="koch recursion depth")
    gen.add_argument("--dims", type=int, default=8, help="lattice dimensions")
    gen.add_argument("--jitter-max", type=float, default=synth.LATTICE_JITTER_MAX)
    gen.add_argument("--levels", type=str, default=None,
                     help="comma-separated lattice levels (default 0,1/3,2/3,1)")
    gen.add_argument("--max-dim", type=int, default=5, help="largest nested cube")
    gen.add_argument("--n-per-cube", type=int, default=5000)
    gen.add_argument("--rotate", action="store_true",
                     help="apply one random global rotation (nested_cubes)")
    gen.add_argument("--offset", type=float, default=0.0, help="query offset h (offset_disc)")
    gen.add_argument("--length", type=float, default=1.0, help="segment length (line)")
    gen.add_argument("--width-ratio", type=float, default=0.04, help="line width / length")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    est = sub.add_parser("estimate", help="per-point ID estimates as CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--k", type=int, required=True)
    est.add_argument("--estimators", default="abid,rabid",
                     help=f"comma-separated tags from {','.join(ESTIMATOR_TAGS)}")
    est.add_argument("--delimiter", default=",")
    est.add_argument("--header", action="store_true", help="input has a header row to skip")
    est.add_argument("--label-column", action="store_true",
                     help="treat the trailing input column as a label, not a coordinate")
    est.add_argument("--points", type=int, default=None,
                     help="estimate only this many query points (seeded subsample)")
    est.add_argument("--subsample-seed", type=int, default=0)
    est.add_argument("--ged-pair", default=None, help="explicit k1,k2 for the ged estimator")
    est.add_argument("--with-diagnostics", action="store_true",
                     help="append mean_cosine and flags columns")
    est.add_argument("--threads", type=int, default=1)
    est.add_argument("-o", "--output", required=True)
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

    tr = sub.add_parser("trails", help="per-point estimates across k values")
    tr.add_argument("--input", required=True)
    tr.add_argument("--estimator", default="abid", choices=ESTIMATOR_TAGS)
    tr.add_argument("--k-min", type=int)
    tr.add_argument("--k-max", type=int)
    tr.add_argument("--k-step", type=int)
    tr.add_argument("--k-values", default=None, help="explicit comma-separated k list")
    tr.add_argument("--delimiter", default=",")
    tr.add_argument("--header", action="store_true")
    tr.add_argument("--label-column", action="store_true")
    tr.add_argument("--points", type=int, default=None)
    tr.add_argument("--subsample-seed", type=int, default=0)
    tr.add_argument("--threads", type=int, default=1)
    tr.add_argument("-o", "--output", required=True)
    tr.set_defaults(func=cmd_trails)

    val = sub.add_parser("validate", help="run the statistical self-checks")
    val.add_argument("--d", type=int, default=5)
    val.add_argument("--samples", type=int, default=100_000)
    val.add_argument("--ks-samples", type=int, default=10_000)
    val.add_argument("--seed", type=int, default=1)
    val.set_defaults(func=cmd_validate)

    return parser


def _load_data(args) -> DataMatrix:
    data = load_csv(args.input, delimiter=args.delimiter, skip_header=args.header)
    if getattr(args, "label_column", False):
        if data.dim < 2:
            raise UsageError("--label-column needs at least 2 input columns")
        data = DataMatrix(data.points[:, :-1])
    return data


def _subsample(n: int, count: int | None, seed: int) -> list[int] | None:
    if count is not None and count < 1:
        raise UsageError("--points must be >= 1")
    if count is None or count >= n:
        return None
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(n, size=count, replace=False))
    print(f"subsample: {count} of {n} query points (seed={seed})", file=sys.stderr)
    return [int(i) for i in picked]


def cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    out = synth.generate(spec)
    matrix = out.matrix
    if out.query is not None:
        # Append the query point as the final row so the whole scenario
        # round-trips through one file; its index is n-1.
        matrix = DataMatrix(np.vstack([matrix.points, out.query]))
        print("query point appended as the last row", file=sys.stderr)
    if out.labels is not None:
        _write_labeled_csv(matrix, out.labels, args.output)
    else:
        write_csv(matrix, args.output)
    print(f"shape={spec.shape} n={matrix.n} D={matrix.dim} seed={spec.seed}", file=sys.stderr)
    return EXIT_OK


def _spec_from_args(args) -> synth.GeneratorSpec:
    shape = args.shape
    params: dict = {}
    needs_n = shape in ("ball", "sphere", "gaussian", "koch", "offset_disc", "line")
    if needs_n and (args.n is None or args.n < 1):
        raise UsageError(f"shape {shape!r} requires --n >= 1")
    if shape in ("ball", "sphere", "gaussian"):
        if args.d is None or args.d < 1:
            raise UsageError(f"shape {shape!r} requires --d >= 1")
        params["d"] = args.d
    elif shape == "koch":
        if args.depth < 0:
            raise UsageError("--depth must be >= 0")
        params["depth"] = args.depth
    elif shape == "lattice":
        if args.levels is not None:
            params["levels"] = _parse_floats(args.levels, "--levels")
        params["dims"] = args.dims
        params["jitter_max"] = args.jitter_max
    elif shape == "nested_cubes":
        params.update(max_dim=args.max_dim, n_per_cube=args.n_per_cube, rotate=args.rotate)
    elif shape == "offset_disc":
        params["h"] = args.offset
    elif shape == "line":
        params.update(length=args.length, width_ratio=args.width_ratio)
    try:
        return synth.GeneratorSpec(shape=shape, n=args.n, seed=args.seed, params=params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_labeled_csv(matrix: DataMatrix, labels: np.ndarray, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        for row, label in zip(matrix.points, labels):
            fh.write(",".join([_fmt(v) for v in row] + [str(int(label))]) + "\n")


def cmd_estimate(args) -> int:
    try:
        tags = angle_id._check_tags(t.strip() for t in args.estimators.split(",") if t.strip())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    ged_pair = None
    if args.ged_pair is not None:
        pair = _parse_floats(args.ged_pair, "--ged-pair")
        if len(pair) != 2 or not all(v.is_integer() for v in pair):
            raise UsageError(f"--ged-pair expects two integers k1,k2, got {args.ged_pair!r}")
        ged_pair = (int(pair[0]), int(pair[1]))
        if not 1 <= ged_pair[0] < ged_pair[1] <= args.k:
            raise UsageError(f"--ged-pair needs 1 <= k1 < k2 <= k={args.k}, got {args.ged_pair!r}")
    for tag in tags:
        try:
            analysis._check_k_values([args.k], tag, ged_pair)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    data = _load_data(args)
    queries = _subsample(data.n, args.points, args.subsample_seed)
    table = angle_id.estimate_table(
        data,
        args.k,
        estimators=tags,
        queries=queries,
        ged_pair=ged_pair,
        with_diagnostics=args.with_diagnostics,
        threads=args.threads,
    )
    write_csv(table, args.output, delimiter=args.delimiter)
    print(f"estimated {len(table)} points at k={args.k}: {','.join(tags)}", file=sys.stderr)
    return EXIT_OK


def cmd_histogram(args) -> int:
    if args.bin_width <= 0:
        raise UsageError("--bin-width must be positive")
    values = _read_column(args.input, args.column, args.delimiter)
    if args.x_min is not None:
        values = values[values >= args.x_min]
    if args.x_max is not None:
        values = values[values <= args.x_max]
    if values.size == 0:
        raise CsvFormatError(args.input, None, "no values left to histogram")
    hist = analysis.histogram(values, args.bin_width, args.origin)
    analysis.write_histogram_csv(hist, args.output, delimiter=args.delimiter)
    print(f"histogram of {hist.n_total} values, mode at {hist.mode_center()}", file=sys.stderr)
    return EXIT_OK


def _read_column(path, column: str, delimiter: str) -> np.ndarray:
    with Path(path).open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(delimiter)
        if column not in header:
            raise UsageError(f"column {column!r} not in header {header}")
        pos = header.index(column)
        values = []
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\r\n").split(delimiter)
            if len(fields) != len(header):
                raise CsvFormatError(path, lineno, f"expected {len(header)} fields")
            try:
                values.append(float(fields[pos]))
            except ValueError:
                raise CsvFormatError(
                    path, lineno, f"non-numeric field {fields[pos]!r}"
                ) from None
    if not values:
        raise CsvFormatError(path, None, "file contains no data rows")
    return np.asarray(values)


def cmd_trails(args) -> int:
    if args.k_values is not None:
        values = _parse_floats(args.k_values, "--k-values")
        if not all(v.is_integer() for v in values):
            raise UsageError(f"--k-values expects comma-separated integers, got {args.k_values!r}")
        ks = [int(v) for v in values]
    else:
        if None in (args.k_min, args.k_max, args.k_step):
            raise UsageError("need --k-values or all of --k-min/--k-max/--k-step")
        if args.k_step < 1 or args.k_min < 1 or args.k_max < args.k_min:
            raise UsageError("invalid k range")
        ks = list(range(args.k_min, args.k_max + 1, args.k_step))
    try:
        ks = analysis._check_k_values(ks, args.estimator)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    data = _load_data(args)
    points = _subsample(data.n, args.points, args.subsample_seed)
    tm = analysis.trails(data, ks, args.estimator, point_subset=points, threads=args.threads)
    analysis.write_trails_csv(tm, args.output, delimiter=args.delimiter)
    print(f"trails for {len(tm.point_indices)} points at k={ks}", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.d < 2:
        raise UsageError("--d must be >= 2")
    if args.samples < 100 or args.ks_samples < 100:
        raise UsageError("need at least 100 samples")
    print(f"validate: d={args.d} samples={args.samples} "
          f"ks_samples={args.ks_samples} seed={args.seed}", file=sys.stderr)
    checks = run_self_checks(args.d, args.samples, args.ks_samples, args.seed)
    print("check,statistic,threshold,status")
    failed = False
    for name, stat, threshold, ok in checks:
        failed |= not ok
        print(f"{name},{_fmt(stat)},{_fmt(threshold)},{'PASS' if ok else 'FAIL'}")
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


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
