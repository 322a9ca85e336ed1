"""ResultSlot: atomic first-writer-wins resolution and done callbacks.

The TCP server writes each reply from a done callback on the thread
that resolves the slot, and the scheduler's drain count hangs off the
slot's ``on_resolve`` hook — so both must run exactly once, callbacks
first, whatever the resolvers race or raise.
"""

import sys
import threading

import pytest

from repro.service.proto import Response
from repro.service.scheduler import ResultSlot, Scheduler


def _ok(request_id="r"):
    return Response(id=request_id, status="ok")


def _race(target, n=8):
    """Run ``target`` on ``n`` threads released together."""
    barrier = threading.Barrier(n)

    def run():
        barrier.wait()
        target()

    threads = [threading.Thread(target=run) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
    assert not any(t.is_alive() for t in threads)


@pytest.fixture
def tight_switching():
    """Switch threads as often as the interpreter allows."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.mark.usefixtures("tight_switching")
class TestResolveRace:
    def test_eight_racing_resolvers_one_winner(self):
        for _ in range(50):
            calls = {"callback": 0, "on_resolve": 0}
            lock = threading.Lock()

            def bump(key):
                with lock:
                    calls[key] += 1

            slot = ResultSlot(on_resolve=lambda: bump("on_resolve"))
            slot.add_done_callback(lambda response: bump("callback"))
            wins = []
            _race(lambda: wins.append(slot.resolve(_ok())))
            assert sorted(wins) == [False] * 7 + [True]
            assert calls == {"callback": 1, "on_resolve": 1}

    def test_racing_resolvers_keep_the_drain_count_exact(self):
        scheduler = Scheduler(max_queue=4)
        for _ in range(200):
            slot = scheduler.make_slot()
            _race(lambda: slot.resolve(_ok()))
        assert scheduler.unresolved == 0
        assert scheduler.wait_drained(timeout=0)

    def test_every_waiter_wakes_with_the_response(self):
        for k in range(50):
            slot = ResultSlot()
            seen = []
            lock = threading.Lock()

            def wait():
                response = slot.result(timeout=5.0)
                with lock:
                    seen.append(response.id)

            waiters = [threading.Thread(target=wait) for _ in range(7)]
            for t in waiters:
                t.start()
            assert slot.resolve(_ok(f"w{k}"))
            for t in waiters:
                t.join(timeout=5.0)
            assert not any(t.is_alive() for t in waiters)
            assert seen == [f"w{k}"] * 7
            assert slot.done()

    def test_bounded_queue_loses_nothing_under_contention(self):
        from repro.service.scheduler import WorkItem

        bound = 8
        scheduler = Scheduler(max_queue=bound)
        producers, consumers, per_producer = 4, 3, 300
        taken, depths = [], []
        lock = threading.Lock()
        done = threading.Event()

        def produce(p):
            for k in range(per_producer):
                item = WorkItem(
                    request_id=f"{p}-{k}", spec=None, options=None,
                    fingerprint="fp", seed=0, deadline=0.0, slot=None,
                )
                assert scheduler.submit(item, block=True, timeout=10.0)

        def consume():
            while not (done.is_set() and scheduler.queue_depth() == 0):
                batch = scheduler.next_batch(3, wait_s=0.01)
                with lock:
                    taken.extend(item.request_id for item in batch)
                    depths.append(scheduler.queue_depth())

        threads = [
            threading.Thread(target=produce, args=(p,))
            for p in range(producers)
        ]
        eaters = [threading.Thread(target=consume) for _ in range(consumers)]
        for t in threads + eaters:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        done.set()
        for t in eaters:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads + eaters)
        assert sorted(taken) == sorted(
            f"{p}-{k}" for p in range(producers) for k in range(per_producer)
        )
        assert max(depths) <= bound
        # Every place came back: the bound admits exactly ``bound`` more.
        item = WorkItem(
            request_id="x", spec=None, options=None, fingerprint="fp",
            seed=0, deadline=0.0, slot=None,
        )
        assert all(scheduler.submit(item, block=False) for _ in range(bound))
        assert not scheduler.submit(item, block=False)


class TestDoneCallbacks:
    def test_early_callback_runs_on_the_resolving_thread(self):
        slot = ResultSlot()
        seen = []
        slot.add_done_callback(
            lambda response: seen.append(
                (response.id, threading.current_thread().name)
            )
        )
        assert seen == []
        resolver = threading.Thread(
            target=slot.resolve, args=(_ok("early"),), name="resolver"
        )
        resolver.start()
        resolver.join(timeout=5.0)
        assert not resolver.is_alive()
        assert seen == [("early", "resolver")]

    def test_late_callback_runs_immediately_on_the_caller(self):
        slot = ResultSlot()
        slot.resolve(_ok("late"))
        seen = []
        slot.add_done_callback(
            lambda response: seen.append(
                (response.id, threading.current_thread().name)
            )
        )
        assert seen == [("late", threading.current_thread().name)]

    def test_callbacks_run_before_the_drain_hook(self):
        order = []
        slot = ResultSlot(on_resolve=lambda: order.append("drain"))
        slot.add_done_callback(lambda response: order.append("a"))
        slot.add_done_callback(lambda response: order.append("b"))
        slot.resolve(_ok())
        assert order == ["a", "b", "drain"]

    def test_raising_callback_is_contained(self, caplog):
        """Like ``concurrent.futures``: a callback's exception is
        logged, never reaches the resolver (an executor worker), and
        the later callbacks and the drain hook still run."""
        scheduler = Scheduler(max_queue=4)
        slot = scheduler.make_slot()
        seen = []

        def boom(response):
            raise RuntimeError("reply write blew up")

        slot.add_done_callback(boom)
        slot.add_done_callback(lambda response: seen.append(response.id))
        assert slot.resolve(_ok("boom")) is True
        assert seen == ["boom"]
        assert scheduler.unresolved == 0
        assert slot.done()
        assert slot.result(timeout=0).id == "boom"
        assert slot.resolve(_ok("again")) is False
        assert "reply write blew up" in caplog.text
        slot.add_done_callback(boom)  # late: contained on the caller too


class TestClaimPublish:
    def test_claimed_response_is_invisible_until_published(self):
        order = []
        slot = ResultSlot(on_resolve=lambda: order.append("drain"))
        slot.add_done_callback(lambda response: order.append("reply"))
        assert slot.claim(_ok("c")) is True
        assert slot.claim(_ok("lost")) is False
        assert slot.resolve(_ok("lost")) is False
        assert not slot.done()
        # A callback registered between claim and publish still runs
        # on the publishing thread, not at once.
        slot.add_done_callback(lambda response: order.append("late"))
        order.append("bookkeeping")
        slot.publish()
        assert order == ["bookkeeping", "reply", "late", "drain"]
        assert slot.result(timeout=0).id == "c"
        slot.publish()  # idempotent
        assert order == ["bookkeeping", "reply", "late", "drain"]
