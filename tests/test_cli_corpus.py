"""The golden CLI corpus: every case of cli_corpus.py gives the exit code,
stdout and stderr recorded in cli_corpus.txt, byte for byte."""

import pytest

from cli_corpus import CASES, ENVIRONMENT, EXPECTED, blocks, platform, run, write_inputs

TEXT = EXPECTED.read_text()


@pytest.mark.parametrize("name, argv, env", CASES, ids=[case[0] for case in CASES])
def test_case_output(tmp_path, monkeypatch, name, argv, env):
    recorded, here = TEXT.split("=== ", 1)[0], platform()
    if recorded != here:
        pytest.skip(f"the expected output is from {' '.join(recorded.split())}; "
                    f"this host has {' '.join(here.split())}")
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MDS_WORK_CAP", raising=False)
    for key, value in {**ENVIRONMENT, **env}.items():
        monkeypatch.setenv(key, value)
    assert run(name, argv) == blocks(TEXT)[name]


def test_every_case_is_recorded():
    assert list(blocks(TEXT)) == [case[0] for case in CASES]
