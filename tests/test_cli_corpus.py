"""The golden CLI corpus: every case of cli_corpus.py gives the exit code,
stdout and stderr recorded in cli_corpus.txt, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

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


# Every power comes from numpy's complex exp (series._exp), which gives the
# same bits at X86_V3 and X86_V4.  The array np.log of the direct sum and
# the moment still follows the dispatch, at n = 9170, 19143 and 94869 among
# n <= 10^5; no case's output shows it.
def test_dispatch_changes_no_case(tmp_path):
    recorded, here = TEXT.split("=== ", 1)[0], platform()
    if recorded != here or "simd X86_V4" not in here:
        pytest.skip(f"needs the recorded platform at X86_V4; this host has "
                    f"{' '.join(here.split())}")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, cli_corpus; sys.stdout.write(cli_corpus.render())"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert child.stdout.split("=== ", 1)[0] != here        # the setting took hold
    assert blocks(child.stdout) == blocks(TEXT)
