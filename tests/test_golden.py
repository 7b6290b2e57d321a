"""The CLI's output contract: every golden case reproduces its checked-in files."""

import goldens
import pytest


@pytest.mark.parametrize("name", list(goldens.CASES))
def test_cli_output_matches_golden_files(name):
    stdout, stderr = goldens.run(goldens.CASES[name])
    exact = goldens.fingerprint() == goldens.recorded_fingerprint()
    assert goldens.differences(name, stdout, stderr, exact) == []


@pytest.mark.parametrize("name", list(goldens.CASES))
def test_golden_files_agree_with_themselves_field_by_field(name):
    assert goldens.differences(name, *goldens.read(name), exact=False) == []


def test_field_comparison_holds_its_bounds():
    stdout, _ = goldens.read("mc_2017")
    lines = stdout.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")

    def moved(column, factor):
        cells = lines[1].rstrip("\n").split(",")
        k = header.index(column)
        cells[k] = repr(float(cells[k]) * factor)
        return "".join([lines[0], ",".join(cells) + "\n"] + lines[2:])

    def differences(text):
        return goldens.differences("mc_2017", text, "", exact=False)

    assert differences(moved("mc_i_local", 1 + 1e-10)) == []
    assert len(differences(moved("mc_i_local", 1 + 1e-8))) == 1
    # i_local is 1.01 here: one unit in its 12th digit is 1e-11
    assert differences(moved("i_local", 1 + 0.5e-11)) == []
    assert len(differences(moved("i_local", 1 + 2e-11))) == 1
    threshold = next(line for line in lines if "inseparability = 1 at" in line)
    assert len(differences(stdout.replace(threshold, threshold.replace("0.", "0.1", 1)))) == 1
