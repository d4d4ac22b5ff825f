"""Communication primitives: fairness, blocking, matching."""

import pytest

from repro.simx import Channel, Delay, Engine, Store


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_channel_fifo():
    eng = Engine()
    ch = Channel(eng)
    got = []

    def producer():
        for i in range(5):
            yield from ch.put(i)
            yield Delay(1)

    def consumer():
        for _ in range(5):
            v = yield from ch.get()
            got.append(v)

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert got == [0, 1, 2, 3, 4]


def test_channel_get_blocks_until_put():
    eng = Engine()
    ch = Channel(eng)

    def consumer():
        v = yield from ch.get()
        return (v, eng.now)

    def producer():
        yield Delay(123)
        yield from ch.put("x")

    p = eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert p.result == ("x", 123)


def test_channel_capacity_blocks_put():
    eng = Engine()
    ch = Channel(eng, capacity=1)
    events = []

    def producer():
        yield from ch.put(1)
        events.append(("put1", eng.now))
        yield from ch.put(2)  # blocks until consumer drains
        events.append(("put2", eng.now))

    def consumer():
        yield Delay(100)
        v = yield from ch.get()
        events.append(("got", v, eng.now))
        yield Delay(0)
        v = yield from ch.get()
        events.append(("got", v, eng.now))

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert ("put1", 0) in events
    put2 = [e for e in events if e[0] == "put2"][0]
    assert put2[1] >= 100


def test_channel_bad_capacity():
    with pytest.raises(ValueError):
        Channel(Engine(), capacity=0)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_predicate_matching():
    eng = Engine()
    store = Store(eng)
    store.put({"tag": 1, "v": "one"})
    store.put({"tag": 2, "v": "two"})

    def body():
        m = yield from store.get(lambda m: m["tag"] == 2)
        return m["v"]

    p = eng.process(body())
    eng.run()
    assert p.result == "two"
    assert len(store) == 1  # tag-1 message still queued


def test_store_non_overtaking_same_key():
    """Items with the same key are matched in arrival order."""
    eng = Engine()
    store = Store(eng)
    for i in range(5):
        store.put({"k": "a", "seq": i})
    got = []

    def body():
        for _ in range(5):
            m = yield from store.get(lambda m: m["k"] == "a")
            got.append(m["seq"])

    eng.process(body())
    eng.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_waiter_woken_on_put():
    eng = Engine()
    store = Store(eng)

    def body():
        m = yield from store.get(lambda m: m > 10)
        return (m, eng.now)

    p = eng.process(body())
    eng.schedule(5, store.put, 3)    # doesn't match
    eng.schedule(9, store.put, 99)   # matches
    eng.run()
    assert p.result == (99, 9)
    assert store.get_async(lambda m: m == 3).value == 3  # still queued


def test_store_oldest_waiter_wins():
    eng = Engine()
    store = Store(eng)
    got = []

    def waiter(name):
        def body():
            m = yield from store.get(lambda m: True)
            got.append((name, m))

        return body

    eng.process(waiter("first")())
    eng.process(waiter("second")())
    eng.schedule(10, store.put, "x")
    eng.schedule(20, store.put, "y")
    eng.run()
    assert got == [("first", "x"), ("second", "y")]


def test_store_get_async_immediate_and_deferred():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    ev = store.get_async(lambda m: m == 1)
    assert ev.triggered and ev.value == 1
    ev2 = store.get_async(lambda m: m == 2)
    assert not ev2.triggered
    store.put(2)
    assert ev2.triggered and ev2.value == 2


def test_store_keyed_index_exact_match():
    """With a key_fn, an exact-key get skips unrelated items entirely."""
    eng = Engine()
    store = Store(eng, key_fn=lambda m: (m["src"], m["tag"]))
    store.put({"src": 0, "tag": 7, "v": "a"})
    store.put({"src": 1, "tag": 7, "v": "b"})
    store.put({"src": 0, "tag": 7, "v": "c"})
    ev = store.get_async(
        lambda m: m["src"] == 0 and m["tag"] == 7, key=(0, 7))
    assert ev.triggered and ev.value["v"] == "a"
    assert len(store) == 2  # "b" untouched, "c" still queued


def test_store_keyed_non_overtaking_mixed_with_wildcard():
    """Per-key FIFO survives interleaved wildcard (predicate-path) gets:
    a wildcard removal leaves a stale id in the index that the keyed
    path must skip, still yielding arrival order for the key."""
    eng = Engine()
    store = Store(eng, key_fn=lambda m: (m["src"], m["tag"]))
    for i in range(4):
        store.put({"src": 0, "tag": 1, "seq": i})
    store.put({"src": 9, "tag": 1, "seq": 99})
    # Wildcard get (no key): removes the oldest overall -> seq 0,
    # leaving its id stale in the (0, 1) index deque.
    ev_any = store.get_async(lambda m: True)
    assert ev_any.value["seq"] == 0
    got = []
    for _ in range(3):
        ev = store.get_async(
            lambda m: m["src"] == 0 and m["tag"] == 1, key=(0, 1))
        assert ev.triggered
        got.append(ev.value["seq"])
    assert got == [1, 2, 3]  # arrival order, no overtaking, no seq-0 replay
    assert store.get_async(lambda m: True).value["seq"] == 99


def test_store_keyed_miss_registers_waiter():
    eng = Engine()
    store = Store(eng, key_fn=lambda m: m["tag"])
    ev = store.get_async(lambda m: m["tag"] == 5, key=5)
    assert not ev.triggered
    store.put({"tag": 4})
    assert not ev.triggered
    store.put({"tag": 5})
    assert ev.triggered and ev.value["tag"] == 5
    assert len(store) == 1  # the tag-4 item
