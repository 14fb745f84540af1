import decimal
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dyncount import PerturbationConfig, Session, dynamic_sequence, parse_af
from dyncount.cli import run
from dyncount.dimacs import write_dimacs

from helpers import example1_state

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.cnf"
    path.write_text(write_dimacs(example1_state()))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_count_example1(example1_file):
    code, out, err = invoke(["count", example1_file])
    assert code == 0
    assert out == "1 10\n"
    assert err == ""


def test_count_all_modes_agree(example1_file):
    for mode in ("noshared", "shared"):
        code, out, _ = invoke(["count", example1_file, "--mode", mode])
        assert code == 0
        assert out.splitlines()[0] == "1 10"


def test_stats_lines_are_comments(example1_file):
    code, out, _ = invoke(["count", example1_file, "--stats"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 10"
    assert all(l.startswith("c ") for l in lines[1:])
    assert any(l.startswith("c decisions") for l in lines)


def test_stats_json_line(example1_file):
    import json
    code, out, _ = invoke(["count", example1_file, "--stats-json"])
    assert code == 0
    json_lines = [l for l in out.splitlines() if l.startswith("c json ")]
    assert len(json_lines) == 1
    record = json.loads(json_lines[0][len("c json "):])
    assert record["checkpoint"] == 1
    assert record["decisions"] >= 0


def test_session_script(tmp_path, example1_file):
    script = tmp_path / "sess.txt"
    script.write_text("av 1\nav 2\nac 1 2 0\ncount\n"
                      "reset\nload %s\ncount\nquit\n" % example1_file)
    code, out, err = invoke(["session", str(script)])
    assert code == 0
    results = [l for l in out.splitlines() if not l.startswith("c ")]
    assert results == ["1 3", "2 10"]


def test_session_cache_transparency(tmp_path, example1_file):
    # counting the same formula twice must give the same value in every mode
    script = tmp_path / "twice.txt"
    script.write_text("load %s\ncount\ncount\nquit\n" % example1_file)
    for mode in ("noshared", "shared"):
        code, out, _ = invoke(["session", str(script), "--mode", mode])
        assert code == 0
        results = [l for l in out.splitlines() if not l.startswith("c ")]
        assert results == ["1 10", "2 10"]


def test_softcore_output_shape(tmp_path):
    path = tmp_path / "soft.cnf"
    path.write_text("p cnf 2 2\n1 0\n1 2 0\n")
    code, out, _ = invoke(["softcore", str(path)])
    assert code == 0
    lines = out.splitlines()
    core = [l for l in lines if l.startswith("core ")]
    removed = [l for l in lines if l.startswith("removed ")]
    assert core == ["core 2"]
    assert removed == ["removed 1"]
    assert "c base 2" in lines
    assert "c threshold 3" in lines


def test_af_count_mutual_pair(tmp_path):
    path = tmp_path / "mutual.af"
    path.write_text("p af 2\n1 2\n2 1\n")
    code, out, err = invoke(["af-count", str(path)])
    assert code == 0
    assert out == "1 3\n"


def test_af_dynamic_deterministic(tmp_path):
    path = tmp_path / "net.af"
    path.write_text("p af 4\n1 2\n2 3\n3 4\n")
    runs = []
    for _ in range(2):
        code, out, _ = invoke(["af-dynamic", str(path),
                               "--steps", "12", "--seed", "7"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    results = [l for l in runs[0].splitlines() if not l.startswith("c ")]
    assert len(results) == 12
    assert results[0].split()[0] == "1"


def test_af_dynamic_stats_json_per_step(tmp_path):
    import json
    path = tmp_path / "net.af"
    path.write_text("p af 4\n1 2\n2 3\n3 4\n")
    session = Session()
    records = dynamic_sequence(parse_af(path.read_text()),
                               PerturbationConfig(steps=6, seed=7), session)
    code, out, _ = invoke(["af-dynamic", str(path), "--steps", "6",
                           "--seed", "7", "--stats-json"])
    assert code == 0
    stats = [json.loads(l[len("c json "):]) for l in out.splitlines()
             if l.startswith("c json ")]
    assert [s["checkpoint"] for s in stats] == [1, 2, 3, 4, 5, 6]
    assert stats == [r.stats for r in records]
    assert sum(s["decisions"] for s in stats) == session.stats.decisions


def test_td_command(example1_file):
    code, out, _ = invoke(["td", example1_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("width ")
    assert lines[1].startswith("bags ")
    assert int(lines[0].split()[1]) >= 1


def test_usage_errors_exit_1():
    for argv in ([], ["count"], ["count", "x.cnf", "--mode", "bogus"],
                 ["nonsense"], ["count", "x.cnf", "--frobnicate"]):
        code, _, err = invoke(argv)
        assert code == 1, argv


def test_out_of_range_flags_exit_1(example1_file):
    for argv in (["count", example1_file, "--cache-bytes", "0"],
                 ["softcore", example1_file, "--delta", "-1"],
                 ["af-dynamic", example1_file, "--steps", "-3"]):
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert out == ""
        assert "error: argument" in err


def test_usage_errors_go_to_given_err(capsys):
    for argv in ([], ["count", "x.cnf", "--mode", "bogus"],
                 ["count", "x.cnf", "--mode", "shared-sym"],
                 ["count", "x.cnf", "--heuristic", "vsads"],
                 ["count", "x.cnf", "--heuristic", "dlcs"]):
        code, out, err = invoke(argv)
        assert code == 1, argv
        lines = err.splitlines()
        assert lines[0].startswith("usage: dyncount")
        assert "error:" in lines[-1]
        assert out == ""
        assert capsys.readouterr() == ("", "")


def test_help_goes_to_given_out(capsys):
    for argv, usage in ((["--help"], "usage: dyncount "),
                        (["count", "-h"], "usage: dyncount count ")):
        code, out, err = invoke(argv)
        assert code == 0, argv
        assert out.startswith(usage)
        assert err == ""
        assert capsys.readouterr() == ("", "")


def test_missing_file_exit_2(tmp_path):
    code, _, err = invoke(["count", str(tmp_path / "absent.cnf")])
    assert code == 2
    assert "error:" in err


def test_malformed_dimacs_exit_2(tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 5 0\n")
    code, _, err = invoke(["count", str(path)])
    assert code == 2


def test_softcore_without_clauses_exit_2(tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 3 0\n")
    code, out, err = invoke(["softcore", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_malformed_af_exit_2(tmp_path):
    path = tmp_path / "bad.af"
    path.write_text("1 2\n")
    code, _, err = invoke(["af-count", str(path)])
    assert code == 2


def test_duplicate_clause_warning_goes_to_given_err(tmp_path, capsys, recwarn):
    script = tmp_path / "dup.txt"
    script.write_text("av 1\nac 1 0\nac 1 0\nac 1 0\ncount\n")
    code, out, err = invoke(["session", str(script)])
    assert code == 0
    assert out == "1 1\n"
    assert err.splitlines() == ["warning: clause (1,) already present"] * 2
    assert capsys.readouterr() == ("", "")
    assert len(recwarn) == 0


def test_memory_error_exit_3(tmp_path):
    # the clause mask of a variable this large needs 1 << 2*10**19, which
    # Python refuses at once, before allocating anything
    script = tmp_path / "huge.txt"
    script.write_text("av 10000000000000000000\n"
                      "ac 10000000000000000000 0\ncount\n")
    code, out, err = invoke(["session", str(script)])
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"


def test_non_utf8_file_exit_2_for_every_command(tmp_path):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"\xff\xfe\x00garbage")
    for command in ("count", "session", "softcore", "af-count", "af-dynamic",
                    "td"):
        code, out, err = invoke([command, str(path)])
        assert code == 2, command
        assert out == ""
        assert err.startswith("error:"), command


def test_count_prints_counts_of_any_length(tmp_path):
    # 2**15000 has 4516 digits, past Python's default limit of 4300; the
    # expected digits come from decimal, which that limit does not cover
    path = tmp_path / "free.cnf"
    path.write_text("p cnf 15000 0\n")
    with decimal.localcontext() as ctx:
        ctx.prec = 5000
        expected = str(decimal.Decimal(2) ** 15000)
    assert len(expected) == 4516
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = invoke(["count", str(path)])
    assert (code, err) == (0, "")
    assert out == "1 %s\n" % expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_stdout_purity(example1_file):
    # every stdout line is either a result line or a "c " comment
    code, out, _ = invoke(["count", example1_file, "--stats", "--stats-json"])
    assert code == 0
    for line in out.splitlines():
        assert line.startswith("c ") or line.split()[0].isdigit()


def test_entry_point_installed(tmp_path, example1_file):
    # Install this checkout offline, then run the installed script against
    # the installed package only: src/ is kept off its import path.
    pytest.importorskip("pip")
    target = tmp_path / "target"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pip", "install", "--quiet",
                    "--no-index", "--no-deps", "--target", str(target),
                    str(REPO_ROOT)],
                   env=env, check=True, timeout=300)
    script = shutil.which("dyncount", path=str(target / "bin"))
    assert script is not None
    env["PYTHONPATH"] = str(target)
    done = subprocess.run([script, "count", example1_file], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 10\n"
