"""Command-line sweep over input squeezing for both cloning machines.

Writes one record per grid point with the entanglement criteria and clone
fidelities of both machines, all derived from the circuit outputs, plus a
threshold report locating where the whole-state machine's criteria cross 1.
Optionally cross-checks the criteria with the sampling oracle: one run per
point and machine, sampled by one ``montecarlo.sample_criteria`` pass per
machine.
"""

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import montecarlo
from .circuits import CLONE_PAIRS, UNITY_GAIN, machine_covariances
from .criteria import correlation_matrix_from_cov, epr_paradox, inseparability, squeezing_db
from .fidelity import fidelity_from_cov

CSV_HEADER = "v_s,squeezing_db,i_local,i_global,eps_local,eps_global,f_local,f_global"
BISECTION_TOL = 1e-9
V_MIN_FLOOR = 0.001
# Largest --gain accepted, a decade below the smallest gain measured to fail:
# over 3000 log-spaced gains in [1e3, 1e5] and 8000 v_s in [1e-3, 1] (4000
# of them in [1e-3, 2e-3]), the first failure is at gain 9.4e4, where
# rounding at entries ~gain^2/v_s leaves the global machine's clone
# covariance at v_s = 1.003e-3 without a Cholesky factor; from there up
# the failures are erratic (3e7 fails at v_s = 0.01 already).
MAX_GAIN = 9e3
# 128 + SIGPIPE: the status a shell reports for a writer killed by SIGPIPE
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 (not 2) for invalid flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="ecloner",
        description=(
            "Sweep the input squeezing variance and report entanglement "
            "criteria and fidelities for the local and global cloning machines."
        ),
    )
    parser.add_argument("--points", type=int, default=200, help="grid points (default 200)")
    parser.add_argument(
        "--v-min", type=float, default=0.01, help="smallest squeezing variance (default 0.01)"
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
    )
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--mc-shots",
        type=int,
        default=0,
        help="sampling-oracle shots per grid point and machine (0 disables)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed for the oracle")
    parser.add_argument(
        "--gain",
        type=float,
        default=UNITY_GAIN,
        help=(
            "expert: cloner feedforward gain (default sqrt(2), the unity-gain "
            "setting that copies clone amplitudes exactly; other values bias "
            f"the clones and break the fixed-fidelity records); at most {MAX_GAIN:g}"
        ),
    )
    return parser


def _validate(parser, args):
    if args.points < 2:
        parser.error(f"--points must be at least 2, got {args.points}")
    # the global machine's criteria are computed from covariance entries of
    # size 1/v_s, so their relative error grows as 1/v_s^2 (2e-9 at 1e-4);
    # the spectral validation rejects some states below 1e-4
    if not V_MIN_FLOOR <= args.v_min < 1.0:
        parser.error(f"--v-min must lie in [{V_MIN_FLOOR}, 1), got {args.v_min}")
    if args.mc_shots != 0 and args.mc_shots < montecarlo.MIN_SHOTS:
        parser.error(
            f"--mc-shots must be 0 or at least {montecarlo.MIN_SHOTS}, got {args.mc_shots}"
        )
    # checked with sampling off too, so a flag's validity never depends on another
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if not 0 < args.gain <= MAX_GAIN:  # NaN fails too
        parser.error(f"--gain must lie in (0, {MAX_GAIN:g}], got {args.gain}")


def _criteria(machine, v_s, gain):
    """Stacked source covariance and clone-1 correlation matrix of a machine."""
    source, clones = machine_covariances(machine, v_s, gain)
    return source, correlation_matrix_from_cov(clones, CLONE_PAIRS[machine][0])


def _analytic_records(grid, gain):
    """The analytic columns in CSV_HEADER order, each from one stacked evaluation."""
    table = {"v_s": grid.tolist(), "squeezing_db": [squeezing_db(v_s) for v_s in grid]}
    for name in ("local", "global"):
        source, cm = _criteria(name, grid, gain)
        table[f"i_{name}"] = inseparability(cm).tolist()
        table[f"eps_{name}"] = epr_paradox(cm).tolist()
        # the pair's correlation matrix is the clone's reduced covariance
        table[f"f_{name}"] = fidelity_from_cov(source, cm.matrix).value.tolist()
    return {key: table[key] for key in CSV_HEADER.split(",")}


def _sample_records(table, gain, mc_shots, master_seed):
    """Append the mc columns from one oracle run, with its own seed, per (point, machine)."""
    names = ("mc_i_{}", "mc_i_{}_err", "mc_eps_{}", "mc_eps_{}_err")
    for m, machine in enumerate(("local", "global")):
        seeds = montecarlo.spawn_seeds(master_seed, len(table["v_s"]), m)
        values = montecarlo.sample_criteria(machine, table["v_s"], seeds, mc_shots, gain)
        for name, column in zip(names, values.tolist()):
            table[name.format(machine)] = column


def _bisect_crossing(lo, hi, gain):
    """Roots of inseparability = 1 and epr_paradox = 1 on [lo, hi], searched together.

    Returns ``(inseparability_root, epr_paradox_root)``, None where the
    criterion does not change sign.  Each root is the midpoint of a bracket
    no wider than ``BISECTION_TOL``, as a bisection would return, but the
    brackets shrink by ITP steps (interpolate, truncate, project: Oliveira &
    Takahashi, ACM Trans. Math. Softw. 47(1), 5, 2020).  A step takes the
    regula-falsi point, moves it toward the midpoint by
    ``kappa1 * width**kappa2`` and keeps it within
    ``tol/2 * 2**(n_max - j) - width/2`` of the midpoint, so no bracket takes
    more than ``n0`` steps beyond the bisection's.  After one stacked
    evaluation of the global machine at the brackets' ends, each step is one
    stacked evaluation at both brackets' points.  A search that has not
    ended after ``n_max`` steps raises a RuntimeError naming the gain and
    the bracket.
    """

    def excess(v_s):  # rows: criterion; columns: points
        _, cm = _criteria("global", v_s, gain)
        return np.stack([inseparability(cm), epr_paradox(cm)]) - 1.0

    f_lo, f_hi = excess([lo, hi]).T
    crossing = f_lo * f_hi <= 0
    # measured on the tests' gains and brackets: kappa2 = 1.7 takes 8-11
    # evaluations, 1.5 takes 9-13, and 2 stalls to 31-32 at gains 0.5 and 1
    kappa1, kappa2, n0 = 0.2 / (hi - lo), 1.7, 1
    n_max = math.ceil(math.log2((hi - lo) / BISECTION_TOL)) + n0
    bracket = f"[{lo!r}, {hi!r}]"
    lo, hi = np.full(2, lo), np.full(2, hi)
    # rounding can leave the brackets' widths apart: each stops on its own
    j = 0
    while (active := crossing & (hi - lo > BISECTION_TOL)).any():
        if j == n_max:
            raise RuntimeError(
                f"threshold search on {bracket} at gain {gain!r} did not end in {n_max} steps"
            )
        mid, width = 0.5 * (lo + hi), hi - lo
        # interpolate: regula falsi, which divides 0 by 0 only if both ends are roots
        frac = np.divide(f_lo, f_lo - f_hi, out=np.full(2, 0.5), where=f_lo != f_hi)
        x_f = lo + frac * width
        # truncate: step kappa1 * width**kappa2 from it toward the midpoint
        toward = np.sign(mid - x_f)
        delta = kappa1 * width**kappa2
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + toward * delta, mid)
        # project: stay near enough to the midpoint to keep bisection's worst case
        radius = 0.5 * BISECTION_TOL * 2.0 ** (n_max - j) - 0.5 * width
        x = np.where(np.abs(x_t - mid) <= radius, x_t, mid - toward * radius)
        # an inactive bracket is evaluated at its midpoint and left as it is
        x = np.where(active, x, mid)
        f_x = np.diagonal(excess(x))
        left = active & (f_lo * f_x <= 0)
        right = active & ~left
        hi, f_hi = np.where(left, x, hi), np.where(left, f_x, f_hi)
        lo, f_lo = np.where(right, x, lo), np.where(right, f_x, f_lo)
        j += 1
    roots = 0.5 * (lo + hi)
    return tuple(float(root) if ok else None for root, ok in zip(roots, crossing))


def _threshold_lines(gain):
    lines = [f"thresholds for the global machine (ITP search to {BISECTION_TOL:g})"]
    for root, label, literature in zip(
        _bisect_crossing(V_MIN_FLOOR, 1.0, gain),
        ("inseparability", "epr_paradox"),
        ("literature: 3 dB", "literature: 5.7 dB"),
    ):
        if root is None:
            lines.append(
                f"{label} = 1: no crossing for v_s in [{V_MIN_FLOOR:g}, 1] at gain {gain:.12g}"
            )
        else:
            lines.append(
                f"{label} = 1 at v_s = {root:.9f} ({squeezing_db(root):.4f} dB); {literature}"
            )
    lines.append(
        "note: the v_s = 0.67 sometimes quoted for the epr_paradox crossing is "
        "inconsistent with 5.7 dB (0.67 is 1.74 dB); the analytic root is "
        "v_s = 2 - sqrt(3) = 0.2679"
    )
    return lines


def _fmt(value):
    return f"{value:.12g}"


def _write_csv(stream, table, threshold_lines):
    stream.write(",".join(table) + "\n")
    for row in zip(*table.values()):
        stream.write(",".join(map(_fmt, row)) + "\n")
    for line in threshold_lines:
        stream.write(f"# {line}\n")


def _write_json(stream, table):
    payload = [{key: float(_fmt(v)) for key, v in zip(table, row)} for row in zip(*table.values())]
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def run_sweep(args, stdout=None, stderr=None):
    """Evaluate the grid and emit records; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    # Opened before any evaluation, so a bad path fails at once.
    try:
        sink = open(args.output, "w") if args.output else nullcontext(stdout)
    except OSError as exc:
        print(f"ecloner: cannot write {args.output}: {exc}", file=stderr)
        return 2
    with sink as stream:
        grid = np.geomspace(args.v_min, 1.0, args.points)
        grid[-1] = 1.0
        table = _analytic_records(grid, args.gain)
        if args.mc_shots:
            _sample_records(table, args.gain, args.mc_shots, args.seed)
        threshold_lines = _threshold_lines(args.gain)
        if args.format == "csv":
            _write_csv(stream, table, threshold_lines)
        else:
            _write_json(stream, table)
            for line in threshold_lines:
                print(f"# {line}", file=stderr)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        code = run_sweep(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped early, as `| head` does; drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
