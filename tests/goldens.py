"""Golden CLI outputs: the cases, their files, and how a run is compared with them.

Each case ``NAME`` has its stdout in ``golden/NAME.out`` and, where the run
writes to stderr, its stderr in ``golden/NAME.err``.  ``golden/fingerprint.json``
records what the bytes depend on: the numpy version, the BLAS and the
machine.  Where the fingerprint matches, a run must reproduce the files
byte for byte.  Elsewhere it is compared field by field, with bounds fixed
before any run:

- ``mc_*`` columns (sampling-oracle estimates) within 1e-9 relative, far
  below their sampling error (about 1e-3) and above what reordering the
  arithmetic has moved them (4.5e-11);
- every other number, analytic columns and threshold lines alike, within
  one unit of its last printed digit (the 12th significant digit for the
  columns), so a value that rounds the other way at a digit boundary
  still passes; all other text must be equal.

Write the files (after a change that moves a golden byte, on purpose)::

    PYTHONPATH=src python tests/goldens.py regenerate

Compare a saved run of a case, for example one of the installed script::

    ecloner --points 5 --mc-shots 1000000 --seed 3 > out.txt 2> err.txt
    python tests/goldens.py compare mc_1m out.txt err.txt
"""

import contextlib
import io
import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np

from ecloner import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "sweep": ["--points", "200"],
    "mc_5000": ["--points", "200", "--mc-shots", "5000", "--seed", "1"],
    "mc_2017": ["--points", "7", "--mc-shots", "2017", "--seed", "3"],
    "mc_100": ["--points", "20", "--mc-shots", "100", "--seed", "5"],
    "json_gain_1": [
        "--points", "9", "--mc-shots", "3000", "--seed", "2", "--gain", "1.0", "--format", "json"
    ],
    "gain_0.5": ["--points", "3", "--gain", "0.5"],
    "gain_8": ["--points", "3", "--gain", "8"],
    "gain_40": ["--points", "3", "--gain", "40"],
    "mc_1m": ["--points", "5", "--mc-shots", "1000000", "--seed", "3"],
}

MC_RELATIVE = 1e-9
_DECIMAL = re.compile(r"(-?\d+\.\d+)")


def _cpu():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:  # not Linux
        pass
    return platform.processor()


def fingerprint():
    """What the golden bytes depend on besides the code: numpy, its BLAS and the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(), "cpu": _cpu()}


def recorded_fingerprint():
    return json.loads((GOLDEN / "fingerprint.json").read_text())


def run(argv):
    """The CLI's stdout and stderr for ``argv``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ecloner {' '.join(argv)} exited with {code}: {err.getvalue()}")
    return out.getvalue(), err.getvalue()


def read(name):
    """The golden stdout and stderr of case ``name``."""
    err = GOLDEN / f"{name}.err"
    return (
        (GOLDEN / f"{name}.out").read_bytes().decode(),
        err.read_bytes().decode() if err.exists() else "",
    )


def _within_last_digit(value, golden, unit):
    return abs(round(value / unit) - round(golden / unit)) <= 1


def _field_agrees(key, value, golden):
    if value == golden:
        return True
    if key.startswith("mc_"):
        return abs(value - golden) <= MC_RELATIVE * abs(golden)
    if golden == 0.0:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(golden))) - 11)
    return _within_last_digit(value, golden, unit)


def _line_agrees(line, golden):
    parts, want = _DECIMAL.split(line), _DECIMAL.split(golden)
    if len(parts) != len(want) or parts[::2] != want[::2]:
        return False
    for number, expected in zip(parts[1::2], want[1::2]):
        unit = 10.0 ** -len(expected.split(".")[1])
        if not _within_last_digit(float(number), float(expected), unit):
            return False
    return True


def _lines_differ(where, lines, golden):
    if len(lines) != len(golden):
        return [f"{where}: {len(lines)} lines, golden has {len(golden)}"]
    return [
        f"{where} line {k + 1}: {line!r} != golden {want!r}"
        for k, (line, want) in enumerate(zip(lines, golden))
        if not _line_agrees(line, want)
    ]


def _records(text):
    """(records as lists of (key, value), comment lines) of a CSV or JSON stdout."""
    if text.startswith("["):
        return [list(record.items()) for record in json.loads(text)], []
    lines = text.splitlines()
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    records = [list(zip(header, map(float, line.split(",")))) for line in data[1:]]
    return records, [line for line in lines if line.startswith("#")]


def _fields_differ(stdout, golden):
    records, comments = _records(stdout)
    want_records, want_comments = _records(golden)
    if len(records) != len(want_records):
        return [f"stdout: {len(records)} records, golden has {len(want_records)}"]
    found = []
    for k, (record, want) in enumerate(zip(records, want_records)):
        if [key for key, _ in record] != [key for key, _ in want]:
            found.append(f"record {k}: fields {record} != golden {want}")
            continue
        for (key, value), (_, expected) in zip(record, want):
            if not _field_agrees(key, value, expected):
                found.append(f"record {k} {key}: {value!r} != golden {expected!r}")
    return found + _lines_differ("stdout comments", comments, want_comments)


def differences(name, stdout, stderr, exact):
    """Every difference of a run of case ``name`` from its golden files, as messages.

    ``exact`` compares bytes; otherwise fields, within the module's bounds.
    """
    golden_out, golden_err = read(name)
    if exact:
        return [
            f"{stream} differs from golden/{name}.{suffix}"
            for stream, suffix, text, want in (
                ("stdout", "out", stdout, golden_out),
                ("stderr", "err", stderr, golden_err),
            )
            if text != want
        ]
    return _fields_differ(stdout, golden_out) + _lines_differ(
        "stderr", stderr.splitlines(), golden_err.splitlines()
    )


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out, err = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        err_path = GOLDEN / f"{name}.err"
        if err:
            err_path.write_bytes(err.encode())
        else:
            err_path.unlink(missing_ok=True)
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")


def main(argv):
    if argv == ["regenerate"]:
        regenerate()
        return 0
    if len(argv) in (3, 4) and argv[0] == "compare":
        stdout = Path(argv[2]).read_text()
        stderr = Path(argv[3]).read_text() if len(argv) == 4 else ""
        exact = fingerprint() == recorded_fingerprint()
        found = differences(argv[1], stdout, stderr, exact)
        compared = "bytes" if exact else "fields"
        print(f"golden {argv[1]}: {compared} compared, {len(found)} differences")
        for message in found:
            print(message, file=sys.stderr)
        return 1 if found else 0
    print("usage: goldens.py regenerate | compare NAME STDOUT [STDERR]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
