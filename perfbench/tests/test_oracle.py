from perfbench.oracle import Oracle, ValueSource


def _oracle() -> Oracle:
    return Oracle(ValueSource("kv1", seed=11))


def test_values_are_deterministic_per_seed_key_and_version():
    first, second = ValueSource("kv1", 11), ValueSource("kv1", 11)
    assert first.value(5, 0) == second.value(5, 0)
    assert first.value(5, 1) == second.value(5, 1)
    assert first.value(5, 0) != first.value(5, 1)
    assert ValueSource("kv1", 12).value(5, 0) != first.value(5, 0)


def test_stale_value_is_flagged():
    oracle = _oracle()
    oracle.preloaded([5])
    version = oracle.allocate(5)
    oracle.mark_sent(5, version)
    oracle.ack(5, version)
    low = oracle.acked[5]  # a GET sent now must see version 1 or later
    high = oracle.sent[5]
    assert oracle.check(5, low, high, oracle.values.value(5, 1))
    assert not oracle.check(5, low, high, oracle.values.value(5, 0))


def test_in_flight_version_is_accepted():
    oracle = _oracle()
    oracle.preloaded([5])
    version = oracle.allocate(5)
    oracle.mark_sent(5, version)  # sent, not yet acknowledged
    low, high = oracle.acked[5], oracle.sent[5]
    assert oracle.check(5, low, high, oracle.values.value(5, 0))
    assert oracle.check(5, low, high, oracle.values.value(5, 1))
    assert not oracle.check(5, low, high, "some other value")


def test_missing_key_only_before_any_acknowledgement():
    oracle = _oracle()
    version = oracle.allocate(9)
    oracle.mark_sent(9, version)
    assert oracle.check(9, -1, oracle.sent[9], None)
    oracle.ack(9, version)
    assert not oracle.check(9, oracle.acked[9], oracle.sent[9], None)
