"""Admission-control and coalescing unit tests (no event loop needed)."""

import pytest

from repro.serve.batcher import AdmissionController, PendingRequest, RequestBatcher
from repro.serve.protocol import CODE_OVERLOADED, CODE_QUEUE_FULL, RouteRequest


def req(i, **kw):
    return RouteRequest(id=str(i), src=(0,), dst=(1,), **kw)


def pending(i, **kw):
    return PendingRequest(req(i, **kw), None, None)


class TestAdmissionController:
    def test_admits_within_ceiling(self):
        ac = AdmissionController(lambda_ceiling=10.0, max_pending=8)
        assert ac.try_admit(4.0) is None
        assert ac.try_admit(6.0) is None
        assert ac.in_flight_lambda == pytest.approx(10.0)

    def test_refuses_past_ceiling_with_429(self):
        ac = AdmissionController(lambda_ceiling=10.0, max_pending=8)
        assert ac.try_admit(9.0) is None
        verdict = ac.try_admit(1.5)
        assert verdict is not None
        code, reason = verdict
        assert code == CODE_OVERLOADED
        assert "ceiling" in reason
        # a refusal must not consume budget
        assert ac.in_flight_lambda == pytest.approx(9.0)
        assert ac.in_flight_requests == 1

    def test_release_restores_budget(self):
        ac = AdmissionController(lambda_ceiling=10.0, max_pending=8)
        ac.try_admit(9.0)
        ac.release(9.0)
        assert ac.try_admit(9.5) is None

    def test_queue_full_refuses_with_503(self):
        ac = AdmissionController(lambda_ceiling=1e9, max_pending=2)
        assert ac.try_admit(1.0) is None
        assert ac.try_admit(1.0) is None
        code, reason = ac.try_admit(1.0)
        assert code == CODE_QUEUE_FULL
        assert "queue full" in reason

    def test_oversized_single_request_refused_outright(self):
        ac = AdmissionController(lambda_ceiling=2.0, max_pending=8)
        code, _ = ac.try_admit(5.0)
        assert code == CODE_OVERLOADED

    @pytest.mark.parametrize("kw", [
        {"lambda_ceiling": 0, "max_pending": 1},
        {"lambda_ceiling": -1.0, "max_pending": 1},
        {"lambda_ceiling": 1.0, "max_pending": 0},
    ])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ValueError):
            AdmissionController(**kw)


class TestRequestBatcher:
    def test_groups_by_compat_key(self):
        b = RequestBatcher(max_batch=8)
        b.add(pending(1, seed=0))
        b.add(pending(2, seed=0))
        b.add(pending(3, seed=1))
        assert len(b) == 3
        same = b.drain(req(0, seed=0).compat_key())
        assert [p.request.id for p in same] == ["1", "2"]
        assert len(b) == 1

    def test_full_signal(self):
        b = RequestBatcher(max_batch=2)
        assert b.add(pending(1)) is False
        assert b.add(pending(2)) is True
        b.drain(req(1).compat_key())
        # a fresh group after draining starts empty again
        assert b.add(pending(3)) is False

    def test_oldest_key_follows_group_open_order(self):
        b = RequestBatcher(max_batch=8)
        assert b.oldest_key() is None
        b.add(pending(1, seed=1))
        b.add(pending(2, seed=0))
        b.add(pending(3, seed=1))
        assert b.oldest_key() == req(0, seed=1).compat_key()
        b.drain(req(0, seed=1).compat_key())
        assert b.oldest_key() == req(0, seed=0).compat_key()
        b.drain(req(0, seed=0).compat_key())
        assert b.oldest_key() is None

    def test_drain_missing_key_is_empty(self):
        b = RequestBatcher(max_batch=2)
        assert b.drain(("nope",)) == []

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            RequestBatcher(max_batch=0)
