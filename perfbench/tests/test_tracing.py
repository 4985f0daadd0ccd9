import threading

import pytest

from perfbench.tracing import SpanRecorder, analyse


def _dump(names, threads, rows):
    return {"names": names, "threads": threads, "spans": rows}


def test_self_time_subtracts_children_on_the_same_thread():
    # service.get [0, 100] -> tierbase.get [10, 60] -> core.decompress [20, 50]
    #                      -> net.encode [70, 80]
    names = ["service.get", "tierbase.get", "core.decompress", "net.encode"]
    rows = [
        [0, 1, 0, 100, -1, 0],
        [1, 1, 10, 60, 0, 0],
        [2, 1, 20, 50, 1, 0],
        [3, 1, 70, 80, 0, 0],
    ]
    analysis = analyse(_dump(names, {"1": "kv-net-bridge_0"}, rows))
    assert analysis.get("service.get").self_ns == 100 - 50 - 10
    assert analysis.get("tierbase.get").self_ns == 50 - 30
    assert analysis.get("core.decompress").self_ns == 30
    assert analysis.get("net.encode").self_ns == 10
    assert analysis.roots == 1
    assert analysis.unbalanced_roots == 0
    total_self = sum(stats.self_ns for stats in analysis.calls.values())
    assert total_self == 100


def test_spans_on_other_threads_are_background_roots():
    names = ["service.set", "lsm.put", "lsm.flush"]
    rows = [
        [0, 1, 0, 100, -1, 0],  # bridge thread
        [1, 1, 10, 90, 0, 0],
        [2, 2, 40, 140, -1, 0],  # shard executor: its own root, overlapping in time
    ]
    threads = {"1": "kv-net-bridge_0", "2": "kv-shard-0_0"}
    analysis = analyse(_dump(names, threads, rows))
    assert analysis.get("service.set").self_ns == 20
    assert analysis.get("lsm.put").self_ns == 80
    assert analysis.get("lsm.flush").self_ns == 100
    assert analysis.background_self_ns == 100
    assert analysis.roots == 2
    assert analysis.unbalanced_roots == 0


def test_a_child_outside_its_parent_unbalances_the_root():
    rows = [[0, 1, 0, 50, -1, 0], [1, 1, 40, 80, 0, 0]]
    analysis = analyse(_dump(["a", "b"], {"1": "main"}, rows))
    assert analysis.unbalanced_roots == 1


def test_unfinished_spans_are_skipped():
    rows = [[0, 1, 0, 0, -1, 0], [1, 1, 10, 20, 0, 0], [1, 1, 30, 35, -1, 0]]
    analysis = analyse(_dump(["open", "leaf"], {"1": "main"}, rows))
    assert analysis.get("open").count == 0
    assert analysis.get("leaf").count == 1


def test_window_keeps_roots_starting_inside_it_with_their_children():
    rows = [[0, 1, 0, 10, -1, 0], [0, 1, 20, 40, -1, 0], [1, 1, 25, 45, 1, 0]]
    analysis = analyse(_dump(["root", "child"], {"1": "main"}, rows), window=(15, 30))
    assert analysis.get("root").count == 1
    assert analysis.get("child").count == 1


def test_outer_time_counts_only_the_outermost_span_of_a_name():
    rows = [[0, 1, 0, 100, -1, 0], [0, 1, 10, 90, 0, 0]]
    analysis = analyse(_dump(["core.train"], {"1": "main"}, rows))
    assert analysis.get("core.train").outer_ns == 100
    assert analysis.get("core.train").count == 2


def test_wrapper_returns_results_and_reraises_unchanged():
    recorder = SpanRecorder()
    error = ValueError("boom")

    def ok(x):
        return [x, x]

    def fails():
        raise error

    traced_ok = recorder.wrap("ok", ok, units=lambda args, result: len(result))
    traced_fails = recorder.wrap("fails", fails)
    assert traced_ok(3) == [3, 3]
    with pytest.raises(ValueError) as caught:
        traced_fails()
    assert caught.value is error
    analysis = analyse(recorder.dump())
    assert analysis.get("ok").units == 2
    assert analysis.get("fails").count == 1


def test_recorder_tracks_parents_per_thread():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)

    def outer_body():
        inner()
        worker = threading.Thread(target=inner, name="kv-shard-0_0")
        worker.start()
        worker.join(10)
        assert not worker.is_alive()

    recorder.wrap("outer", outer_body)()
    analysis = analyse(recorder.dump())
    assert analysis.edge("inner", "outer").count == 1
    assert analysis.get("inner").count == 2
    assert analysis.roots == 2
    assert analysis.unbalanced_roots == 0
