"""Scoped runtime: enter-once semantics and finalize on every exit path."""

import importlib
import sys
import threading

import pytest

from packrun.spmd import AlreadyActive, GlobalScopeError, SpmdContext, spmd_enter, spmd_exit
from packrun.transport import WorldConfig, init, rank_thread
from support import make_world


@pytest.fixture
def fresh_slot():
    with rank_thread():
        yield


def test_enter_populates_identity(fresh_slot):
    sctx = spmd_enter(WorldConfig())
    assert (sctx.myid, sctx.nprocs) == (0, 1)
    assert sctx.active
    spmd_exit(sctx)
    assert not sctx.active
    assert sctx.transport.finalized


def test_second_enter_while_active(fresh_slot):
    spmd_enter(WorldConfig())
    with pytest.raises(AlreadyActive):
        spmd_enter(WorldConfig())


def test_reenter_after_exit_is_still_rejected(fresh_slot):
    sctx = spmd_enter(WorldConfig())
    spmd_exit(sctx)
    with pytest.raises(AlreadyActive):
        spmd_enter(WorldConfig())


def test_enter_after_init_is_rejected_as_already_active(fresh_slot):
    # one rule for both calls: a rank joins its world once
    ctx = init(WorldConfig())
    with pytest.raises(AlreadyActive):
        spmd_enter(WorldConfig())
    assert not ctx.finalized


def test_exit_is_idempotent(fresh_slot):
    sctx = spmd_enter(WorldConfig())
    calls = []
    original = sctx.transport.finalize
    sctx.transport.finalize = lambda: (calls.append(1), original())[1]
    spmd_exit(sctx)
    spmd_exit(sctx)
    assert calls == [1]


def test_with_block_finalizes_on_error(fresh_slot):
    captured = {}
    with pytest.raises(RuntimeError, match="mid-scope"):
        with spmd_enter(WorldConfig()) as sctx:
            captured["ctx"] = sctx
            raise RuntimeError("mid-scope")
    assert captured["ctx"].transport.finalized
    assert not captured["ctx"].active


def test_exactly_once_finalize_across_paths(fresh_slot):
    sctx = spmd_enter(WorldConfig())
    calls = []
    original = sctx.transport.finalize
    sctx.transport.finalize = lambda: (calls.append(1), original())[1]
    try:
        with sctx:
            raise ValueError("unwind")
    except ValueError:
        pass
    spmd_exit(sctx)
    with sctx:
        pass
    assert calls == [1]


def test_at_exit_callbacks_run_lifo_before_finalize(fresh_slot):
    sctx = spmd_enter(WorldConfig())
    order = []
    sctx.at_exit(lambda: order.append(("first", sctx.transport.finalized)))
    sctx.at_exit(lambda: order.append(("second", sctx.transport.finalized)))
    spmd_exit(sctx)
    assert order == [("second", False), ("first", False)]


def test_failing_callback_cannot_block_finalize(fresh_slot):
    sctx = spmd_enter(WorldConfig())
    ran = []
    sctx.at_exit(lambda: ran.append("inner"))
    sctx.at_exit(lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        spmd_exit(sctx)
    assert ran == ["inner"]
    assert sctx.transport.finalized


def test_enter_at_import_time_is_rejected(tmp_path, fresh_slot):
    module_file = tmp_path / "eager_runtime_user.py"
    module_file.write_text(
        "from packrun.spmd import spmd_enter\n"
        "from packrun.transport import WorldConfig\n"
        "CTX = spmd_enter(WorldConfig())\n")
    sys.path.insert(0, str(tmp_path))
    try:
        with pytest.raises(GlobalScopeError) as err:
            importlib.import_module("eager_runtime_user")
        assert err.value.module == "eager_runtime_user"
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("eager_runtime_user", None)


def test_staged_transport_adoption():
    _, (ctx,) = make_world(1)
    with rank_thread(ctx):  # as the thread launcher runs a rank
        sctx = spmd_enter()
        assert sctx.transport is ctx
        assert sctx.myid == 0
        spmd_exit(sctx)


def test_multi_rank_ids_are_unique():
    _, ctxs = make_world(3)
    ids = {}
    errors = []

    def logical_process(ctx):
        try:
            with rank_thread(ctx), spmd_enter() as sctx:
                gathered = sctx.transport.gather(sctx.transport.world, 0,
                                                 bytes([sctx.myid]))
                if gathered is not None:
                    ids["all"] = gathered
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=logical_process, args=(c,), daemon=True)
               for c in ctxs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not errors
    assert ids["all"] == [b"\x00", b"\x01", b"\x02"]
    assert all(c.finalized for c in ctxs)
