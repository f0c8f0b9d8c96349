"""The package's export table: each public name, its lazy load, and what a rank imports."""

import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import packrun

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(packrun.__path__))

# What only the launcher and the task farm need; a rank that uses neither
# must not pay for importing them.
LAUNCH_AND_FARM = ("packrun.launcher", "packrun.mesh", "packrun.slave", "subprocess", "hashlib")


def fresh(code: str, *args: str):
    """Run `code` with `args` in a new interpreter on this packrun; return its printed JSON."""
    package_root = str(pathlib.Path(packrun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_public_name_is_listed_once():
    listed = [name for names in packrun._EXPORTS.values() for name in names.split()]
    assert sorted(listed) == sorted(set(packrun.__all__))


@pytest.mark.parametrize("order", [SUBMODULES, SUBMODULES[::-1]], ids=["forward", "reverse"])
def test_each_name_is_its_defining_modules_object_after_every_import(order):
    wrong = fresh("""if True:
        import importlib, json, sys, packrun
        for module in sys.argv[1:]:
            importlib.import_module("packrun." + module)
        held = {(name, id(value)) for module in sys.modules.values()
                if module.__name__.startswith("packrun.")
                for name, value in vars(module).items()}
        wrong = [name for name in packrun.__all__
                 if (name, id(getattr(packrun, name))) not in held]
        print(json.dumps(wrong))""", *order)
    assert wrong == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from packrun import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(packrun.__all__)


def test_dir_lists_every_public_name():
    assert set(packrun.__all__) <= set(dir(packrun))


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        packrun.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from packrun import no_such_name  # noqa: F401


def test_threads_importing_at_once_get_the_same_objects():
    assert fresh("""if True:
        import json, sys, threading
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(8)
        got = []
        def run():
            barrier.wait()
            from packrun import MasterPool, MsgBuf
            got.append((MsgBuf, MasterPool))
        threads = [threading.Thread(target=run) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        from packrun.msgbuf import MsgBuf
        from packrun.slave import MasterPool
        print(json.dumps([len(got), all(g == (MsgBuf, MasterPool) for g in got)]))
        """) == [8, True]


@pytest.mark.parametrize("line, absent", [
    ("from packrun import MsgBuf, TypeRegistry, spmd_enter, spmd_exit", LAUNCH_AND_FARM),
    ("from packrun.msgbuf import MsgBuf; from packrun.spmd import spmd_enter", LAUNCH_AND_FARM),
    ("import packrun.cli", ("packrun.bench", "packrun.slave", "packrun.launcher", "packrun.mesh",
                            "packrun.transport", "subprocess")),
], ids=["perfbench-rank", "demo-rank", "cli"])
def test_an_import_loads_only_what_it_uses(line, absent):
    loaded = fresh(f"{line}; import json, sys; print(json.dumps(list(sys.modules)))")
    assert [m for m in absent if m in loaded] == []
