"""The in-repo build backend: metadata, wheel contents, sdist round trip;
what importing the package loads, and the records that keep it light."""

import base64
import hashlib
import importlib.util
import os
import subprocess
import sys
import tarfile
import zipfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_backend():
    spec = importlib.util.spec_from_file_location(
        "build_backend", REPO_ROOT / "build_backend.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


backend = load_backend()


def wheel_contents(path):
    with zipfile.ZipFile(path) as whl:
        return {name: whl.read(name) for name in whl.namelist()}


def test_pyproject_reader_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (REPO_ROOT / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    meta = backend.project_metadata(text)
    assert meta["name"] == project["name"]
    assert meta["version"] == project["version"]
    assert meta["summary"] == project["description"]
    assert meta["requires_python"] == project["requires-python"]
    assert meta["scripts"] == project["scripts"]
    assert meta["scripts"]["dyncount"] == "dyncount.cli:main"


@pytest.mark.parametrize("extra", [
    'dependencies = ["numpy"]',
    'readme = "README.md"',
    '[project.optional-dependencies]\ntest = ["pytest"]',
    '[project.gui-scripts]\ndyncount-gui = "dyncount.cli:main"',
])
def test_unsupported_metadata_is_refused(extra):
    text = '[project]\nname = "dyncount"\nversion = "0.1.0"\n' + extra + "\n"
    with pytest.raises(ValueError):
        backend.project_metadata(text)


def test_wheel_holds_every_package_file(tmp_path):
    contents = wheel_contents(tmp_path / backend.build_wheel(str(tmp_path)))
    src = REPO_ROOT / "src"
    expected = {
        path.relative_to(src).as_posix()
        for path in (src / "dyncount").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }
    info = "dyncount-0.1.0.dist-info/"
    assert {n for n in contents if not n.startswith(info)} == expected
    assert "dyncount/cli.py" in expected
    for name in expected:
        assert contents[name] == (src / name).read_bytes()

    entry_points = contents[info + "entry_points.txt"].decode()
    assert "dyncount = dyncount.cli:main" in entry_points.splitlines()
    record = contents[info + "RECORD"].decode().splitlines()
    assert sorted(line.split(",")[0] for line in record) == sorted(contents)
    for line in record:
        name, digest, size = line.split(",")
        if name == info + "RECORD":
            continue
        data = contents[name]
        assert int(size) == len(data)
        assert digest == "sha256=" + base64.urlsafe_b64encode(
            hashlib.sha256(data).digest()).rstrip(b"=").decode()


def test_editable_wheel_points_at_src(tmp_path):
    contents = wheel_contents(tmp_path / backend.build_editable(str(tmp_path)))
    pth = contents.pop("__editable__.dyncount-0.1.0.pth").decode()
    assert Path(pth.strip()) == REPO_ROOT / "src"
    assert all(n.startswith("dyncount-0.1.0.dist-info/") for n in contents)


def test_sdist_builds_the_same_wheel(tmp_path):
    wheel = wheel_contents(tmp_path / backend.build_wheel(str(tmp_path)))
    sdist = tmp_path / backend.build_sdist(str(tmp_path))
    unpacked = tmp_path / "unpacked"
    with tarfile.open(sdist) as tar:
        names = tar.getnames()
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(unpacked, **safe)
    for name in ("PKG-INFO", "pyproject.toml", "build_backend.py",
                 "README.md", "src/dyncount/__init__.py"):
        assert "dyncount-0.1.0/" + name in names
    assert not any("__pycache__" in name for name in names)

    out = tmp_path / "from_sdist"
    out.mkdir()
    subprocess.run([sys.executable, "-B", "-c",
                    "import sys, build_backend; "
                    "build_backend.build_wheel(sys.argv[1])", str(out)],
                   cwd=unpacked / "dyncount-0.1.0", check=True, timeout=60)
    (rebuilt,) = out.iterdir()
    assert wheel_contents(rebuilt) == wheel


def test_hooks_write_nothing_into_the_checkout(tmp_path):
    def snapshot():
        return {path: path.stat().st_mtime_ns
                for path in REPO_ROOT.rglob("*")
                if ".git" not in path.relative_to(REPO_ROOT).parts}

    editable = tmp_path / "editable"
    editable.mkdir()
    before = snapshot()
    backend.build_wheel(str(tmp_path))
    backend.build_editable(str(editable))
    backend.build_sdist(str(tmp_path))
    assert snapshot() == before


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuples and __slots__ classes, so importing the
    # package and its CLI leaves out dataclasses and the inspect, ast and
    # dis modules it would pull into every process
    code = ("import sys, dyncount, dyncount.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_records_keep_fields_defaults_equality_and_repr():
    from dyncount import (CountResult, EngineConfig, FormulaState,
                          PerturbationConfig, SearchStats, SoftCoreConfig)
    from dyncount.softcore import TrialStep

    config = EngineConfig()
    assert repr(config) == ("EngineConfig(cache_mode='shared', heuristic='dlcs', "
                            "td_mode='off', cache_byte_budget=536870912)")
    assert config == EngineConfig(cache_mode="shared")
    assert config != EngineConfig(cache_mode="no_shared")
    with pytest.raises(ValueError):
        EngineConfig(cache_byte_budget=0)
    with pytest.raises(ValueError):
        SoftCoreConfig(delta=-1.0)
    stats = SearchStats(decisions=2)
    stats.merge(SearchStats(decisions=1, conflicts=4))
    assert repr(stats) == ("SearchStats(decisions=3, propagations=0, "
                           "conflicts=4, positive_hits=0, negative_hits=0)")
    state = FormulaState()
    state.active_vars.add(1)
    assert FormulaState().active_vars == set()  # a fresh set per record
    assert repr(state) == "FormulaState(active_vars={1}, clauses=set())"
    assert state == FormulaState({1}, set())
    step = TrialStep(1, 5, True)
    step.count = 4
    assert repr(step) == "TrialStep(index=1, count=4, accepted=True)"
    assert repr(SoftCoreConfig()) == "SoftCoreConfig(delta=0.2)"
    assert repr(PerturbationConfig(seed=3)) == "PerturbationConfig(steps=1000, seed=3)"
    assert repr(CountResult(7, SearchStats())).startswith(
        "CountResult(count=7, stats=SearchStats(decisions=0, ")
    # like dataclasses with eq=True, the mutable records are unhashable and
    # never equal to a record of another class with the same fields
    for record in (config, stats, state, step, SoftCoreConfig()):
        with pytest.raises(TypeError):
            hash(record)
    assert TrialStep(1, 5, True) != (1, 5, True)
