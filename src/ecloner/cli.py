"""Command-line sweep over input squeezing for both cloning machines.

Writes one record per grid point with the entanglement criteria and clone
fidelities of both machines, all derived from the circuit outputs, plus a
threshold report locating where the whole-state machine's criteria cross 1.
Records and thresholds come from the run's compiled machines
(``circuits._compile_run``); the CLI certifies each threshold among their
candidate roots.
Optionally cross-checks the criteria with the sampling oracle, imported
only then: one run per point and machine, all sampled in one
``montecarlo.sample_criteria`` pass, the local machine's runs first.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .circuits import UNITY_GAIN, _compile_run
from .criteria import squeezing_db

CSV_HEADER = "v_s,squeezing_db,i_local,i_global,eps_local,eps_global,f_local,f_global"
BISECTION_TOL = 1e-9
# Smallest --v-min accepted.  The compiled columns keep their digits far
# below it.  At unity gain, against exact closed forms: every column within
# 1.8e-15 relative from v_s = 1e-8 to 1; below that the local machine's stay
# there, while the global machine's lose to rounding residue in a combined
# row's 1/s coefficient, 1.6e-13 at 1e-10 and 1.5e-9 at 1e-12.  The 0.10.0
# engine, which formed the criteria from covariance entries of size 1/v_s,
# lost 1.1e-10 at 1e-3.  The floor stays where the public constructors,
# which still validate each state, accept every source (ROADMAP item 4).
V_MIN_FLOOR = 0.001
# Largest --gain accepted, a decade below the smallest gain measured to fail
# machine_covariances' validation: over 3000 log-spaced gains in [1e3, 1e5]
# and 8000 v_s in [1e-3, 1] (4000 log-spaced in [1e-3, 2e-3), 4000 in
# [2e-3, 1]), the first failure is at gain 9.48e4, where rounding at entries
# ~gain^2/v_s leaves the global machine's clone covariance at v_s = 1.008e-3
# without a Cholesky factor; from there up the failures are erratic (3e7
# fails at v_s = 0.01 already).  The cap keeps every printed column
# reproducible through machine_covariances.
MAX_GAIN = 9e3
# Smallest --gain accepted, a decade above every gain where a threshold fails
# certification (the compiled criterion must change sign within
# BISECTION_TOL / 2 of its root): 100 of 801 log-spaced gains in [1e-8, 1e-4]
# fail, all at or below 6.2e-7, each an epr_paradox root near v_s = 1, where
# the criterion's slope is of order the gain.  Over 1201 log-spaced gains in
# [MIN_GAIN, MAX_GAIN] every root is certified, within 4.5e-11 of its closed form.
MIN_GAIN = 2e-5
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
            f"the clones and break the fixed-fidelity records); in [{MIN_GAIN:g}, {MAX_GAIN:g}]"
        ),
    )
    return parser


def _validate(parser, args):
    if args.points < 2:
        parser.error(f"--points must be at least 2, got {args.points}")
    if not V_MIN_FLOOR <= args.v_min < 1.0:
        parser.error(f"--v-min must lie in [{V_MIN_FLOOR}, 1), got {args.v_min}")
    if args.mc_shots != 0:
        from .montecarlo import MIN_SHOTS

        if args.mc_shots < MIN_SHOTS:
            parser.error(f"--mc-shots must be 0 or at least {MIN_SHOTS}, got {args.mc_shots}")
    # checked with sampling off too, so a flag's validity never depends on another
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if not MIN_GAIN <= args.gain <= MAX_GAIN:  # NaN fails too
        parser.error(f"--gain must lie in [{MIN_GAIN:g}, {MAX_GAIN:g}], got {args.gain}")


def _analytic_records(grid, machines):
    """The analytic columns in CSV_HEADER order, from the run's compiled
    ``machines`` (``_compile_run``), each column one stacked evaluation."""
    table = {"v_s": grid.tolist(), "squeezing_db": [squeezing_db(v_s) for v_s in grid]}
    for name, machine in machines.items():
        for key, column in zip(("i", "eps", "f"), machine.columns(grid)):
            table[f"{key}_{name}"] = column.tolist()
    return {key: table[key] for key in CSV_HEADER.split(",")}


def _sample_records(table, gain, mc_shots, master_seed):
    """Append the mc columns of one seeded oracle run per (point, machine), all in one pass."""
    from . import montecarlo

    names = ("mc_i_{}", "mc_i_{}_err", "mc_eps_{}", "mc_eps_{}_err")
    machines, v_s = ("local", "global"), table["v_s"]
    seeds = [montecarlo.spawn_seeds(master_seed, len(v_s), m) for m in range(2)]
    runs = [(machines[m], x, seed) for m in range(2) for x, seed in zip(v_s, seeds[m])]
    values = montecarlo.sample_criteria(runs, mc_shots, gain)
    for machine, one_machine in zip(machines, np.split(values, 2, axis=1)):
        for name, column in zip(names, one_machine.tolist()):
            table[name.format(machine)] = column


def _bisect_crossing(lo, hi, gain, machine=None):
    """Roots of inseparability = 1 and epr_paradox = 1 on [lo, hi], found together.

    Returns ``(inseparability_root, epr_paradox_root)``, None where the
    global machine's compiled criterion does not change sign between ``lo``
    and ``hi``.  ``machine`` is the run's compiled global machine, compiled
    here when None.  ``_find_roots`` certifies its ``candidate_roots`` with
    its ``columns``.  Over 1201 log-spaced gains in [MIN_GAIN, MAX_GAIN],
    every root from gain 0.05 up lies within 1.27e-14 of its closed form.
    """
    if machine is None:
        machine = _compile_run(gain)["global"]

    def engine(v):  # both criteria minus 1, leading axis: criterion
        return np.stack(machine.columns(v)[:2]) - 1.0

    return _find_roots(lo, hi, gain, machine.candidate_roots(), engine)


def _find_roots(lo, hi, gain, candidates, engine):
    """The roots on [lo, hi] of two criteria, from each one's candidate v_s.

    ``engine(v)`` gives both criteria minus 1 (leading axis: criterion).  In
    one evaluation, a criterion that changes sign between lo and hi takes
    its smallest candidate, within BISECTION_TOL / 2 of [lo, hi] and clipped
    to it, where it also changes sign within BISECTION_TOL / 2; with none, a
    RuntimeError names the gain and the smallest candidate (nan for none).
    Elsewhere its root is None.
    """
    half = BISECTION_TOL / 2
    kept = [np.sort(np.clip(c[(c >= lo - half) & (c <= hi + half)], lo, hi)) for c in candidates]
    points = np.concatenate(kept)  # columns of f: lo, hi, the points - half, the points + half
    f = engine(np.clip(np.concatenate([[lo, hi], points - half, points + half]), lo, hi))
    crosses = f[:, 0] * f[:, 1] <= 0
    below, above = np.split(f[:, 2:], 2, axis=1)
    roots, ends = [], np.cumsum([len(k) for k in kept])
    for c, (name, k, end) in enumerate(zip(("inseparability", "epr_paradox"), kept, ends)):
        mine = slice(end - len(k), end)
        certified = k[below[c, mine] * above[c, mine] <= 0]
        if crosses[c] and not certified.size:
            root = float(k[0]) if k.size else float("nan")
            raise RuntimeError(
                f"{name} root {root!r} at gain {gain!r} is not certified: "
                f"the engine's {name} - 1 keeps its sign within {half:g} of it"
            )
        roots.append(float(certified[0]) if crosses[c] else None)
    return tuple(roots)


def _threshold_lines(machine):
    """The threshold block of the compiled global ``machine``; the literature
    values and the note on them hold at unity gain only."""
    gain = machine.gain
    unity = gain == UNITY_GAIN
    method = f"compiled Laurent form, certified to {BISECTION_TOL:g}"
    lines = [f"thresholds for the global machine ({method})"]
    for root, label, literature in zip(
        _bisect_crossing(V_MIN_FLOOR, 1.0, gain, machine),
        ("inseparability", "epr_paradox"),
        ("; literature: 3 dB", "; literature: 5.7 dB"),
    ):
        if root is None:
            lines.append(
                f"{label} = 1: no crossing for v_s in [{V_MIN_FLOOR:g}, 1] at gain {gain:.12g}"
            )
        else:
            line = f"{label} = 1 at v_s = {root:.9f} ({squeezing_db(root):.4f} dB)"
            lines.append(line + literature if unity else line)
    if unity:
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
    row_format = ",".join(["%.12g"] * len(table)) + "\n"  # _fmt's format, one row at a time
    for row in zip(*table.values()):
        stream.write(row_format % row)
    for line in threshold_lines:
        stream.write(f"# {line}\n")


def _write_json(stream, table):
    payload = [{key: float(_fmt(v)) for key, v in zip(table, row)} for row in zip(*table.values())]
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def run_sweep(args, stdout=None, stderr=None):
    """Evaluate the grid and emit records; returns the process exit code.

    An OSError while opening, writing or closing the output returns 2 with
    one line on ``stderr``; a BrokenPipeError, a reader that stopped early,
    propagates.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    try:
        # opened before any evaluation, so a bad path fails at once
        with open(args.output, "w") if args.output else nullcontext(stdout) as stream:
            grid = np.geomspace(args.v_min, 1.0, args.points)
            grid[-1] = 1.0
            machines = _compile_run(args.gain)
            table = _analytic_records(grid, machines)
            if args.mc_shots:
                _sample_records(table, args.gain, args.mc_shots, args.seed)
            threshold_lines = _threshold_lines(machines["global"])
            if args.format == "csv":
                _write_csv(stream, table, threshold_lines)
            else:
                _write_json(stream, table)
            stream.flush()  # a full device or a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        raise
    except OSError as exc:
        print(f"ecloner: cannot write {args.output or '<stdout>'}: {exc}", file=stderr)
        return 2
    if args.format == "json":
        for line in threshold_lines:
            print(f"# {line}", file=stderr)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        code = run_sweep(args)
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        code = EXIT_BROKEN_PIPE
    if code != 0 and not args.output:
        # drop the output stdout still holds, which would fail again at interpreter exit
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
