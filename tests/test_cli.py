"""Command-line sweep: formats, determinism, thresholds, and exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from closed_forms import exact_columns

from ecloner import cli, montecarlo
from ecloner.circuits import UNITY_GAIN
from ecloner.cli import CSV_HEADER, build_parser, main, run_sweep


def _run(argv, tmp_path=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    code = run_sweep(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _parse_csv(text):
    data_lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    comments = [line for line in text.splitlines() if line.startswith("#")]
    reader = csv.DictReader(data_lines)
    rows = [{k: float(v) for k, v in row.items()} for row in reader]
    return rows, comments


def test_csv_output_has_exact_header_and_requested_points():
    code, out, _ = _run(["--points", "101", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    rows, comments = _parse_csv(out)
    assert len(rows) == 101
    assert comments, "threshold comment block missing"


def test_record_values_at_half_squeezing():
    code, out, _ = _run(["--points", "3", "--v-min", "0.25"])
    assert code == 0
    rows, _ = _parse_csv(out)
    mid = rows[1]
    assert mid["v_s"] == pytest.approx(0.5, abs=1e-9)
    assert mid["squeezing_db"] == pytest.approx(3.0103, abs=1e-3)
    assert mid["i_local"] == pytest.approx(1.5, abs=1e-9)
    assert mid["i_global"] == pytest.approx(1.0, abs=1e-9)
    assert mid["eps_local"] == pytest.approx(4.0, abs=1e-9)
    assert mid["eps_global"] == pytest.approx(2.56, abs=1e-8)
    assert mid["f_local"] == pytest.approx(0.4, abs=1e-9)
    assert mid["f_global"] == pytest.approx(4.0 / 9.0, abs=1e-9)


def test_every_record_satisfies_schema_invariants():
    _, out, _ = _run(["--points", "40"])
    rows, _ = _parse_csv(out)
    assert rows[0]["v_s"] == pytest.approx(0.01, abs=1e-12)
    assert rows[-1]["v_s"] == 1.0
    for row in rows:
        # 12-significant-digit serialization loosens the roundtrip slightly
        assert row["squeezing_db"] == pytest.approx(-10.0 * math.log10(row["v_s"]), abs=1e-9)
        assert row["f_global"] == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_in_memory_record_invariants_are_tight():
    from ecloner.cli import _analytic_records

    table = _analytic_records(np.array([0.013, 0.37, 0.81, 1.0]), cli._compile_run(UNITY_GAIN))
    assert list(table) == CSV_HEADER.split(",")
    for v_s, db, f_global in zip(table["v_s"], table["squeezing_db"], table["f_global"]):
        assert abs(db - (-10.0 * math.log10(v_s))) < 1e-12
        assert abs(f_global - 4.0 / 9.0) < 1e-12


def _count_calls(monkeypatch, module, name, counts):
    """Replace ``module.name`` by a wrapper that counts its calls in ``counts[name]``."""
    real = getattr(module, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_analytic_path_reads_the_engine_blocks_as_they_are(monkeypatch):
    # No interleaved matrix and no correlation-matrix copy between the
    # engine's x and p blocks and the criteria, the fidelity and the search.
    from ecloner import circuits, criteria

    counts = {}
    _count_calls(monkeypatch, circuits, "_interleave", counts)
    _count_calls(monkeypatch, criteria.CorrelationMatrix, "__post_init__", counts)
    machines = cli._compile_run(UNITY_GAIN)
    cli._analytic_records(np.geomspace(0.01, 1.0, 9), machines)
    cli._threshold_lines(machines["global"])
    assert counts == {"_interleave": 0, "__post_init__": 0}


def _counted_runs(monkeypatch, names):
    """The calls each of ``names`` ((module, name) pairs) gets in one default
    run of 3 points and one of 200."""
    counts, runs = {}, []
    for module, name in names:
        _count_calls(monkeypatch, module, name, counts)
    for points in ("3", "200"):
        counts.update((name, 0) for _, name in names)
        assert _run(["--points", points])[0] == 0
        runs.append(dict(counts))
    return runs


def test_analytic_records_check_the_shared_source_for_purity_once(monkeypatch):
    # the source is certified pure once per run, as a Laurent identity; no
    # state of the sweep is validated point by point
    from ecloner import fidelity, gaussian

    names = ((cli, "_certify_source"), (gaussian, "_spectrum"), (fidelity, "_is_pure"))
    expected = {"_certify_source": 1, "_spectrum": 0, "_is_pure": 0}
    assert _counted_runs(monkeypatch, names) == [expected] * 2


def test_analytic_records_build_the_source_once_per_sweep(monkeypatch):
    # one compiled source per run, whatever the grid; each machine compiled
    # once, fed the source, and certified once on that compiled form
    from ecloner import circuits

    names = ((cli, "_source_rows"), (cli, "_certify_channel"), (circuits, "_compile"))
    monkeypatch.setattr(cli, "_compile", lambda *args: circuits._compile(*args))
    expected = {"_source_rows": 1, "_certify_channel": 2, "_compile": 2}
    assert _counted_runs(monkeypatch, names) == [expected] * 2


@pytest.mark.parametrize("gain", [math.sqrt(2.0), 1.0])
def test_stacked_records_match_the_scalar_api(gain):
    from ecloner import (
        clone_state,
        correlation_matrix,
        epr_paradox,
        epr_source,
        global_ecloner,
        inseparability,
        local_ecloner,
        pure_mixed_fidelity,
    )
    from ecloner.cli import _analytic_records

    # Every point is held to the exact closed forms.  The scalar API's
    # criteria, formed from covariance entries of size 1/v_s, err by up to
    # about eps / v_s^2 against them (5.2e-11 at v_s = 1e-3, 1.25e-12 at
    # 0.0133), so they are the reference too from v_s = 0.02 up, where that
    # stays below 5.5e-13.
    grid = np.geomspace(0.001, 1.0, 25)
    table = _analytic_records(grid, cli._compile_run(gain))
    for idx, v_s in enumerate(grid):
        epr = epr_source(v_s)
        for name, clones in (
            ("local", local_ecloner(epr, gain)),
            ("global", global_ecloner(epr, v_s, gain)),
        ):
            cm = correlation_matrix(clones.state, clones.clone1)
            scalar = {
                "i": inseparability(cm),
                "eps": epr_paradox(cm),
                "f": pure_mixed_fidelity(epr, clone_state(clones)).value,
            }
            for key, exact in zip(("i", "eps", "f"), exact_columns(name, v_s, gain)):
                value = table[f"{key}_{name}"][idx]
                assert abs(Decimal(value) - exact) <= Decimal(1e-12) * exact, (key, name, v_s)
                if v_s >= 0.02:
                    assert abs(value - scalar[key]) <= 1e-12 * abs(scalar[key]), (key, name, v_s)


def test_csv_and_json_parse_to_identical_values(tmp_path):
    argv = ["--points", "7", "--v-min", "0.05"]
    _, csv_text, _ = _run(argv + ["--format", "csv"])
    _, json_text, _ = _run(argv + ["--format", "json"])
    csv_rows, _ = _parse_csv(csv_text)
    json_rows = json.loads(json_text)
    assert len(csv_rows) == len(json_rows) == 7
    for c_row, j_row in zip(csv_rows, json_rows):
        assert set(c_row) == set(j_row)
        for key in c_row:
            assert c_row[key] == j_row[key]


def test_threshold_block_reports_both_crossings():
    _, out, _ = _run(["--points", "5"])
    _, comments = _parse_csv(out)
    block = "\n".join(comments)
    roots = [float(m) for m in re.findall(r"= 1 at v_s = ([0-9.]+)", block)]
    assert len(roots) == 2
    assert abs(roots[0] - 0.5) <= 1e-9
    assert abs(roots[1] - (2.0 - math.sqrt(3.0))) <= 1e-9
    assert "3 dB" in block and "5.7 dB" in block
    assert "inconsistent" in block  # the 0.67 quote is flagged
    assert "2 - sqrt(3)" in block


def test_literature_values_are_printed_at_unity_gain_only(capsys):
    # At gain 8 the roots are 0.0303 and 0.0152: the 3 dB and 5.7 dB of the
    # literature and the note on 2 - sqrt(3) hold at unity gain alone.
    assert main(["--points", "3", "--gain", "8"]) == 0
    comments = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    assert len(comments) == 3  # the header and the two roots
    assert comments[1].endswith("(15.1851 dB)") and comments[2].endswith("(18.1944 dB)")
    block = "\n".join(comments)
    assert "literature" not in block and "note:" not in block and "sqrt(3)" not in block


def _closed_form_roots(gain):
    # I* = 2 / (2 + g^2); eps crosses at the smaller root of v + 1/v = 2 + g^2,
    # written as 1 / (larger root) so that it cancels no digits at large gains
    b = 2.0 + gain * gain
    return 2.0 / b, 2.0 / (b + math.sqrt(b * b - 4.0))


THRESHOLD_GAINS = [UNITY_GAIN, 0.25, 0.5, 0.75, 1.0, 2.5, 8.0, 20.0, 40.0]
# (0.3, 1): epr_paradox does not cross there at unity gain; (0.6, 1): neither does
THRESHOLD_BRACKETS = [(1e-3, 1.0), (0.25, 0.5), (0.3, 1.0), (0.6, 1.0)]


@pytest.mark.parametrize("gain", THRESHOLD_GAINS)
@pytest.mark.parametrize("bracket", THRESHOLD_BRACKETS)
def test_threshold_roots_match_closed_forms(gain, bracket):
    lo, hi = bracket
    for root, exact in zip(cli._bisect_crossing(lo, hi, gain), _closed_form_roots(gain)):
        if lo <= exact <= hi:
            # the midpoint of a bracket no wider than the tolerance
            assert root is not None and abs(root - exact) <= cli.BISECTION_TOL / 2
        else:
            assert root is None


@pytest.mark.parametrize("gain", [UNITY_GAIN, 0.5, 1.0, 2.5, 8.0])
@pytest.mark.parametrize(
    "bracket",
    # (0.3, 1): epr_paradox does not cross there; (0.6, 1): neither criterion does
    [(1e-3, 1.0), (0.25, 0.5), (0.3, 1.0), (0.6, 1.0)],
)
def test_lockstep_roots_equal_one_criterion_at_a_time(gain, bracket, monkeypatch):
    # each criterion's root is the same when the other has no candidate and
    # never crosses 1 in the certifying evaluation
    together = cli._bisect_crossing(*bracket, gain)
    candidate_roots, columns = cli._Compiled.candidate_roots, cli._Compiled.columns
    alone = []
    for c in range(2):

        def one_candidate_set(machine, c=c):
            candidates = list(candidate_roots(machine))
            candidates[1 - c] = np.empty(0)
            return tuple(candidates)

        def one_criterion(machine, v, c=c):
            values = list(columns(machine, v))
            values[1 - c] = np.full(np.shape(v), 2.0)
            return tuple(values)

        with monkeypatch.context() as patch:
            patch.setattr(cli._Compiled, "candidate_roots", one_candidate_set)
            patch.setattr(cli._Compiled, "columns", one_criterion)
            alone.append(cli._bisect_crossing(*bracket, gain)[c])
    assert together == tuple(alone)


@pytest.mark.parametrize("gain", np.geomspace(0.05, 40.0, 120).tolist())
def test_threshold_roots_lie_within_5e_12_of_closed_forms(gain):
    # the closed forms themselves err by a few ulps; the roots miss them by
    # at most 1.3e-14 over 400 log-spaced gains in [0.05, 40]
    for lo, hi in THRESHOLD_BRACKETS:
        roots = cli._bisect_crossing(lo, hi, gain)
        for root, exact in zip(roots, _closed_form_roots(gain)):
            if lo <= exact <= hi:
                assert root is not None and abs(root - exact) <= 5e-12, (lo, hi, root, exact)
            else:
                assert root is None, (lo, hi, root, exact)


@pytest.mark.parametrize("gain", [UNITY_GAIN, 0.05, 0.5, 8.0, 40.0, 9000.0])
def test_the_candidates_hold_the_closed_form_roots(gain):
    # unchecked and unbracketed, each criterion's candidates hold its
    # closed-form root within 5e-12, as the certified roots do
    compiled = cli._compile_run(gain)["global"]
    for candidates, exact in zip(compiled.candidate_roots(), _closed_form_roots(gain)):
        assert np.min(np.abs(candidates - exact)) <= 5e-12, (candidates, exact)


@pytest.mark.parametrize("gain", np.geomspace(cli.MIN_GAIN, cli.MAX_GAIN, 200).tolist())
def test_every_accepted_gain_gives_certified_roots_at_their_closed_forms(gain):
    # the CLI's bracket over the whole accepted gain range: no RuntimeError,
    # None exactly where the closed form lies outside, the root within
    # BISECTION_TOL / 2 of it elsewhere
    lo, hi = cli.V_MIN_FLOOR, 1.0
    for root, exact in zip(cli._bisect_crossing(lo, hi, gain), _closed_form_roots(gain)):
        if lo <= exact <= hi:
            assert root is not None and abs(root - exact) <= cli.BISECTION_TOL / 2, (root, exact)
        else:
            assert root is None, (root, exact)


def _both(excess, calls=None):
    """Both criteria minus 1 as ``excess(v_s)``, for ``cli._find_roots``'s
    engine; each evaluation appends its v_s to ``calls``."""

    def criteria(v_s):
        if calls is not None:
            calls.append(v_s)
        return np.stack([excess(v_s)] * 2)

    return criteria


def test_threshold_search_takes_few_global_evaluations(monkeypatch):
    # the candidates come from the compiled polynomials; one certifying
    # engine evaluation picks the roots among them
    calls, columns = [], cli._Compiled.columns

    def counted(machine, v):
        calls.append(machine.machine)
        return columns(machine, v)

    monkeypatch.setattr(cli._Compiled, "columns", counted)
    for gain in THRESHOLD_GAINS:
        for lo, hi in THRESHOLD_BRACKETS:
            calls.clear()
            cli._bisect_crossing(lo, hi, gain)
            assert calls == ["global"], (gain, lo, hi)


def test_threshold_search_finds_a_root_at_either_end():
    # an excess of exactly 0 at an end of the bracket crosses there
    for root in (0.0, 1.0):
        criteria = _both(lambda v_s, root=root: v_s - root)
        roots = cli._find_roots(0.0, 1.0, UNITY_GAIN, (np.array([root]),) * 2, criteria)
        assert None not in roots and all(abs(r - root) <= cli.BISECTION_TOL / 2 for r in roots)


def test_threshold_search_keeps_a_candidate_just_outside_the_bracket():
    # a root at either end, found as far as BISECTION_TOL / 2 beyond it
    # (inclusive), counts, clipped to the end
    half = cli.BISECTION_TOL / 2
    candidates = (np.array([0.5 + half]), np.array([0.25 - half]))

    def criteria(v_s):
        return np.stack([v_s - 0.5, v_s - 0.25])

    assert cli._find_roots(0.25, 0.5, UNITY_GAIN, candidates, criteria) == (0.5, 0.25)


def test_threshold_search_finds_a_falling_root_at_either_end():
    # as epr_paradox does, the excess falls through 0, here exactly at an end
    for root in (0.0, 1.0):
        criteria = _both(lambda v_s, root=root: root - v_s)
        roots = cli._find_roots(0.0, 1.0, UNITY_GAIN, (np.array([root]),) * 2, criteria)
        assert None not in roots and all(abs(r - root) <= cli.BISECTION_TOL / 2 for r in roots)


def test_threshold_search_takes_the_smallest_certified_candidate():
    # candidates that are no roots, out of order, are passed over
    criteria = _both(lambda v_s: (v_s - 0.3) * (v_s - 0.6) * (v_s - 0.9))
    candidates = np.array([0.95, 0.6, 0.2, 0.9, 0.3])
    assert cli._find_roots(0.0, 1.0, UNITY_GAIN, (candidates, candidates), criteria) == (0.3, 0.3)


def test_threshold_search_reports_no_root_where_nothing_crosses():
    # an uncertified candidate raises nothing where the engine does not cross
    criteria = _both(lambda v_s: v_s + 0.5)
    candidates = (np.array([0.5]), np.empty(0))
    assert cli._find_roots(0.1, 1.0, UNITY_GAIN, candidates, criteria) == (None, None)


@pytest.mark.parametrize("shift", [0.2, 1.5 * cli.BISECTION_TOL / 2])
def test_an_uncertified_root_raises_naming_the_gain_and_the_root(shift):
    # the candidates put both roots at 0.5, the certifying evaluation at
    # 0.5 + shift: the engine still changes sign on the bracket, but not
    # within BISECTION_TOL / 2 of the root
    calls = []
    engine = _both(lambda v_s: v_s - (0.5 + shift), calls)
    message = (
        r"^inseparability root 0\.5 at gain 2\.0 is not certified: "
        r"the engine's inseparability - 1 keeps its sign within 5e-10 of it$"
    )
    with pytest.raises(RuntimeError, match=message):
        cli._find_roots(0.1, 1.0, 2.0, (np.array([0.5]),) * 2, engine)
    assert len(calls) == 1


@pytest.mark.parametrize("gain", [5.8, 8.0, 20.0, 40.0])
def test_large_gains_report_the_closed_form_thresholds(gain, capsys):
    expected = _closed_form_roots(gain)
    assert main(["--points", "3", "--gain", str(gain)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "= 1" in line]
    for label, root, line in zip(("inseparability", "epr_paradox"), expected, lines):
        assert line.startswith(f"# {label} = 1")
        if root < cli.V_MIN_FLOOR:
            assert ": no crossing for v_s in [0.001, 1]" in line
        else:
            printed = float(re.search(r"at v_s = ([0-9.]+)", line).group(1))
            assert abs(printed - root) <= 1e-9
    assert len(lines) == 2


@pytest.mark.filterwarnings("error")
def test_gain_past_the_float_range_raises_naming_v_s_and_gain():
    # the clones' variances grow as gain**2: at 1e160 they pass 1e308; main
    # rejects such a gain as a flag, so the sweep is run past its parser
    message = r"^v_s = 0\.01, gain = 1e\+160: the clones leave the float range$"
    with pytest.raises(ValueError, match=message):
        cli.run_sweep(cli.build_parser().parse_args(["--points", "3", "--gain", "1e160"]))


@pytest.mark.filterwarnings("error")
def test_the_largest_gain_accepted_runs_over_the_whole_v_s_domain(capsys):
    argv = ["--points", "50", "--v-min", str(cli.V_MIN_FLOOR), "--mc-shots", "100"]
    assert main(argv + ["--gain", repr(cli.MAX_GAIN)]) == 0
    line = f"no crossing for v_s in [0.001, 1] at gain {cli.MAX_GAIN:.12g}"
    assert line in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_the_smallest_gain_accepted_prints_roots_within_their_tolerance(capsys):
    # Below cli.MIN_GAIN the epr_paradox root nears v_s = 1, where the
    # engine's criterion loses the digits that certify it; at the floor both
    # printed roots still match their closed forms.
    argv = ["--points", "50", "--v-min", str(cli.V_MIN_FLOOR), "--mc-shots", "100"]
    assert main(argv + ["--gain", repr(cli.MIN_GAIN)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "= 1 at v_s" in line]
    printed = [float(re.search(r"at v_s = ([0-9.]+)", line).group(1)) for line in lines]
    assert len(printed) == 2
    for value, exact in zip(printed, _closed_form_roots(cli.MIN_GAIN)):
        assert abs(value - exact) <= 1e-9


def _package_env():
    """The environment of a fresh interpreter that imports this package."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_closed_pipe_exits_quietly():
    env = _package_env()
    # 2000 rows are far more than a pipe buffers, so writes go on after the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "ecloner.cli", "--points", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().decode().rstrip("\n") == CSV_HEADER
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)  # reads and closes stderr
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert err == b""  # no Traceback, nor any other message


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pipe_in_process_leaks_no_file_descriptor(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:  # its close flushes the rest to os.devnull
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["--points", "2000"]) == cli.EXIT_BROKEN_PIPE
        assert len(os.listdir("/proc/self/fd")) == before


def test_importing_the_cli_leaves_the_thread_pool_unimported():
    # No module of the package imports concurrent.futures (about 7 ms).
    code = "import sys, ecloner.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_importing_the_cli_leaves_the_oracle_set_up_unimported():
    # numpy 2 imports numpy.random lazily, and the CLI imports the oracle,
    # with its seeding replica, only where --mc-shots is set, so a sweep
    # without --mc-shots pays for none of them (numpy 1 imports numpy.random).
    modules = "{'numpy.random', 'ecloner._seeding', 'ecloner.montecarlo', 'ecloner._kernels'}"
    code = f"import sys, ecloner.cli; print(sorted({modules} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    loaded = [] if int(np.__version__.split(".")[0]) >= 2 else ["numpy.random"]
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{loaded}\n", "")


def test_a_default_sweep_leaves_the_oracle_set_up_unimported():
    # A sweep without --mc-shots must not compile the oracle or its seeding
    # replica, each of which raised its peak RSS with no bytecode cache, nor,
    # on numpy 2, import numpy.random.
    modules = "{'numpy.random', 'ecloner._seeding', 'ecloner.montecarlo', 'ecloner._kernels'}"
    code = (
        "import sys; from ecloner.cli import main; code = main(['--points', '3'])\n"
        f"print(code, sorted({modules} & set(sys.modules)), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    loaded = [] if int(np.__version__.split(".")[0]) >= 2 else ["numpy.random"]
    assert (done.returncode, done.stderr) == (0, f"0 {loaded}\n")
    assert done.stdout.startswith(CSV_HEADER)


def test_the_package_serves_the_oracle_names_on_first_use():
    # PEP 562: the five oracle names resolve to montecarlo's own objects, are
    # listed by dir(), and a star import still binds every name of __all__
    import ecloner

    assert ecloner.sample_circuit is montecarlo.sample_circuit
    assert ecloner.RNG_ALGORITHM == montecarlo.RNG_ALGORITHM
    assert set(ecloner._ORACLE_NAMES) <= set(dir(ecloner))
    namespace = {}
    exec("from ecloner import *", namespace)
    assert set(ecloner.__all__) <= set(namespace)
    assert namespace["estimate_criteria"] is montecarlo.estimate_criteria
    with pytest.raises(AttributeError, match="has no attribute 'sample_circuits'"):
        ecloner.sample_circuits


def test_json_mode_sends_thresholds_to_stderr():
    _, out, err = _run(["--points", "5", "--format", "json"])
    json.loads(out)  # document must stay pure JSON
    assert "inseparability = 1" in err
    assert "epr_paradox = 1" in err


def test_output_file_and_determinism(tmp_path):
    target = tmp_path / "sweep.csv"
    argv = ["--points", "6", "--mc-shots", "500", "--seed", "42", "--output", str(target)]
    assert main(argv) == 0
    first = target.read_text()
    assert main(argv) == 0
    assert target.read_text() == first
    rows, _ = _parse_csv(first)
    assert "mc_i_local" in rows[0] and "mc_eps_global_err" in rows[0]
    for row in rows:
        assert row["mc_i_local_err"] > 0
        assert abs(row["mc_i_local"] - row["i_local"]) <= 6.0 * row["mc_i_local_err"]


def test_mc_columns_absent_by_default():
    _, out, _ = _run(["--points", "4"])
    rows, _ = _parse_csv(out)
    assert "mc_i_local" not in rows[0]


def test_gain_flag_changes_the_records():
    # Over-gain degrades both criteria and fidelity outright.
    _, out, _ = _run(["--points", "4", "--gain", "2.0"])
    for row in _parse_csv(out)[0]:
        assert row["f_global"] < 4.0 / 9.0
        assert row["i_global"] > 2.0 * row["v_s"] + 1e-6
    # Under-gain biases the clones toward vacuum: the fixed-fidelity record
    # invariant no longer holds even though the raw overlap rises.
    _, out, _ = _run(["--points", "4", "--gain", "1.0"])
    for row in _parse_csv(out)[0]:
        assert abs(row["f_global"] - 4.0 / 9.0) > 1e-3


@pytest.mark.parametrize(
    "argv",
    [
        ["--points", "1"],
        ["--v-min", "0"],
        ["--v-min", "1.2"],
        ["--v-min", "1"],
        ["--format", "yaml"],
        ["--mc-shots", "50"],
        ["--gain", "-2"],
        ["--gain", "0"],
        ["--points", "many"],
        ["--points", "3", "--seed", "-1"],
        ["--points", "3", "--mc-shots", "100", "--seed", "-1"],
        ["--points", "3", "--gain", "9000.001"],
        # just below the smallest gain accepted, and a gain whose root failed to certify
        ["--points", "3", "--gain", repr(float(np.nextafter(cli.MIN_GAIN, 0.0)))],
        ["--points", "3", "--gain", "1e-7"],
        ["--points", "3", "--gain", "nan"],
    ],
)
def test_invalid_flags_exit_with_code_one(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    # usage, then an error line naming the offending (last) flag
    assert err.startswith("usage:")
    assert argv[-2] in err.splitlines()[-1]


def test_two_points_are_the_grid_ends(capsys):
    # through main, which validates the flags; --points 1 is rejected above
    assert main(["--points", "2", "--v-min", "0.04"]) == 0
    rows, _ = _parse_csv(capsys.readouterr().out)
    assert [row["v_s"] for row in rows] == [0.04, 1.0]


def test_unwritable_output_exits_with_code_two(tmp_path, monkeypatch, capsys):
    # The path is checked before any sampling, not after it.
    calls = []
    monkeypatch.setattr(montecarlo, "_draw_run", lambda *a, **k: calls.append(a))
    target = tmp_path / "missing_dir" / "sweep.csv"
    assert main(["--points", "3", "--mc-shots", "1000", "--output", str(target)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(f"ecloner: cannot write {target}: ")


RUN_SHOTS = 2000


@pytest.mark.parametrize(
    "fmt, shots",
    [("csv", RUN_SHOTS), ("json", RUN_SHOTS), ("csv", 2017)],
    ids=["csv", "json", "2017"],
)
def test_threaded_output_is_byte_identical_to_one_worker(tmp_path, fmt, shots):
    # Three sweeps at once on user threads that switch far more often than
    # usual write the bytes of one sweep alone on one thread; 2017 shots
    # give unequal batches of 100 and 101 shots.
    argv = ["--points", "7", "--mc-shots", str(shots), "--seed", "3", "--format", fmt]
    serial = tmp_path / "serial.out"
    assert main(argv + ["--output", str(serial)]) == 0
    start, codes = threading.Barrier(3), [None] * 3

    def worker(i):
        start.wait(timeout=30)
        codes[i] = main(argv + ["--output", str(tmp_path / f"{i}.out")])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert codes == [0, 0, 0]
    for i in range(3):
        assert (tmp_path / f"{i}.out").read_bytes() == serial.read_bytes()


def test_failing_run_raises_as_serially_and_cancels_pending_runs(monkeypatch):
    points, real = 40, montecarlo._draw_run
    # the global machine's runs at points 0 and 3, known by their generator
    # states; the first of them raises
    sequences = [np.random.SeedSequence(5, spawn_key=(idx, 1)) for idx in (0, 3)]
    seeds = [int(seq.generate_state(1, np.uint64)[0]) for seq in sequences]
    failing = {np.random.PCG64(seed).state["state"]["state"]: seed for seed in seeds}
    first = seeds[0]
    calls = []

    def draw(rng, state, dof, row):
        calls.append(failing.get(state[0]))
        if calls[-1] is not None:
            raise ValueError(f"injected failure in run {calls[-1]}")
        real(rng, state, dof, row)

    monkeypatch.setattr(montecarlo, "_draw_run", draw)
    argv = ["--points", str(points), "--mc-shots", str(RUN_SHOTS), "--seed", "5"]
    with pytest.raises(ValueError, match=f"^injected failure in run {first}$"):
        main(argv)
    # the whole local pass, then the global pass's failing first run: no run behind it is drawn
    assert calls[-1] == first and len(calls) == points + 1


def test_oracle_pass_memory_does_not_grow_with_points():
    # The bound, fixed before any run: four (BLOCK_RUNS, NUM_BATCHES + 1, 8,
    # 8) float stacks, 1.38 MB, above the traced peak of one block alone
    # (0.66 MB, on the clone pair's 4x4 stacks).  Measured growth is 0.25
    # MB, most of it the output columns the pass leaves in the table; an
    # unblocked pass would hold every run's stacks at once, 12.5 times a
    # block at 400 points.
    block_bytes = 4 * montecarlo.BLOCK_RUNS * (montecarlo.NUM_BATCHES + 1) * 8 * 8 * 8
    shots = 5000
    cli._sample_records({"v_s": [0.5, 1.0]}, UNITY_GAIN, shots, 1)  # one-time set-up
    peaks = []
    for points in (50, 400):
        table = {"v_s": np.geomspace(0.01, 1.0, points).tolist()}
        tracemalloc.start()
        try:
            cli._sample_records(table, UNITY_GAIN, shots, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < block_bytes
