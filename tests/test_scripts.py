import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import chorcheck

from conftest import REPO

AUDIT = str(REPO / "scripts" / "complement_audit.py")
DIGEST = REPO / "scripts" / "corpus_digest.py"
MUTANTS = REPO / "scripts" / "mutants.py"


def src_env(**extra):
    src = str(Path(chorcheck.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_audit(*args):
    return subprocess.run([sys.executable, AUDIT, *args], env=src_env(),
                          capture_output=True, text=True, timeout=60)


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_digest_script():
    return load_script(DIGEST)


def test_complement_audit_bounds():
    # a non-positive bound is refused rather than hanging in the word enumeration
    for args in (["--max-events", "-1"], ["--max-events", "0"], ["--count", "0"]):
        r = run_audit(*args)
        assert r.returncode == 2, args
        assert "positive integer" in r.stderr
    r = run_audit("--count", "1", "--max-events", "9")
    assert r.returncode == 3
    assert "exceeds the limit" in r.stderr and "Traceback" not in r.stderr
    r = run_audit("--count", "2", "--max-events", "3")
    assert r.returncode == 0
    assert "2 passed, 0 failed" in r.stdout


def test_corpus_digest_requires_hash_seed_zero():
    for seed in ("1", "random"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        r = subprocess.run([sys.executable, str(DIGEST)], env=env,
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 2, seed
        assert r.stderr.startswith("error:") and not r.stdout


def test_corpus_digest_exits_1_on_a_changed_digest(monkeypatch, capsys):
    digest = load_digest_script()
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    committed = list(digest.EXPECTED.values())
    # the runner gives back the committed digests in line order: no CLI runs
    outputs = iter(committed)
    monkeypatch.setattr(digest, "run_digest", lambda runs: next(outputs))
    assert digest.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(committed)
    assert all(line.endswith(" ok") for line in lines)

    changed = "simulate --bound 2 --max-events 8 --json"
    monkeypatch.setitem(digest.EXPECTED, changed, "0" * 64)
    outputs = iter(committed)
    assert digest.main() == 1
    flagged = [line for line in capsys.readouterr().out.splitlines()
               if line.endswith(" CHANGED")]
    assert len(flagged) == 1 and flagged[0].startswith(changed + ":")


def test_fast_corpus_digest_lines_are_unchanged():
    # the synch line, the two closure lines and the ten complement-law lines,
    # run for real: their JSON covers classify (the minimal DFA's diamond
    # check), member, project, dot, complement, verify-complement and the
    # synch verdict, and each digest must equal the committed one
    code = f"""
import importlib.util, tempfile
spec = importlib.util.spec_from_file_location("corpus_digest", {str(DIGEST)!r})
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)
with tempfile.TemporaryDirectory() as tmp:
    for label, runs in digest.digest_lines(tmp):
        if label == "realisable --model synch --json" or label.startswith(
                ("closure ", "complement-law ")):
            print(digest.run_digest(runs), label)
"""
    r = subprocess.run([sys.executable, "-c", code], env=src_env(PYTHONHASHSEED="0"),
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    lines = [line.split(" ", 1) for line in r.stdout.splitlines()]
    expected = load_digest_script().EXPECTED
    assert len(lines) == 13
    for digest, label in lines:
        assert digest == expected[label], label


def test_mutant_texts_occur_once():
    # a refactor that moves a mutant's text must update the mutant list; the
    # script refuses (exit 2) to run a list with a stale entry
    mutants = load_script(MUTANTS)
    assert mutants.stale() == []
    for m in mutants.MUTANTS:
        assert (REPO / m.file).read_text().count(m.old) == 1, m.reason
        assert m.new != m.old, m.reason
