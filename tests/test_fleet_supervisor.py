"""Residency budget: LRU eviction, rehydration, drain, adoption."""

import asyncio

import pytest

from repro.core.model import VProfileModel
from repro.errors import FleetError
from repro.fleet.supervisor import (
    EVICTIONS_METRIC,
    REHYDRATIONS_METRIC,
    TENANTS_METRIC,
    FleetSupervisor,
)
from repro.fleet.tenant import TENANT_META_FILE, CaptureParams, TenantEngine
from repro.obs.registry import MetricsRegistry


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def make_engine(stream_vehicle, stream_model_file):
    path, _extraction = stream_model_file

    def make(tenant_id):
        return TenantEngine(
            tenant_id,
            vehicle="sterling",
            model=VProfileModel.load(path),
            params=CaptureParams.for_vehicle(stream_vehicle),
        )

    return make


@pytest.fixture
def registry():
    return MetricsRegistry()


def gauge_value(registry, state):
    instrument = registry.get(TENANTS_METRIC, state=state)
    return None if instrument is None else instrument.value


class TestRegistration:
    def test_register_and_lookup(self, registry, make_engine):
        async def go():
            supervisor = FleetSupervisor(registry)
            record = await supervisor.register("v1", make_engine("v1"))
            assert supervisor.record("v1") is record
            assert record.resident and not record.evicted
            return supervisor.stats()

        stats = run(go())
        assert stats["tenants"] == 1
        assert stats["resident"] == 1
        assert gauge_value(registry, "resident") == 1

    def test_duplicate_register_raises(self, registry, make_engine):
        async def go():
            supervisor = FleetSupervisor(registry)
            await supervisor.register("v1", make_engine("v1"))
            with pytest.raises(FleetError, match="already registered"):
                await supervisor.register("v1", make_engine("v1"))

        run(go())

    def test_unknown_tenant_raises(self, registry):
        supervisor = FleetSupervisor(registry)
        with pytest.raises(FleetError, match="unknown tenant"):
            supervisor.record("ghost")

    def test_max_resident_must_be_positive(self, registry):
        with pytest.raises(FleetError, match="max_resident"):
            FleetSupervisor(registry, max_resident=0)


class TestEviction:
    def test_register_over_budget_evicts_lru(
        self, registry, make_engine, tmp_path
    ):
        async def go():
            supervisor = FleetSupervisor(
                registry, state_dir=tmp_path, max_resident=2
            )
            first = await supervisor.register("v1", make_engine("v1"))
            await supervisor.register("v2", make_engine("v2"))
            first.touch()  # v2 becomes least recently active
            await supervisor.register("v3", make_engine("v3"))
            return supervisor

        supervisor = run(go())
        assert supervisor.record("v2").evicted
        assert supervisor.record("v1").resident
        assert supervisor.record("v3").resident
        assert supervisor.evictions == 1
        assert (tmp_path / "v2" / "tenant.json").is_file()
        assert gauge_value(registry, "evicted") == 1
        assert registry.get(EVICTIONS_METRIC).value == 1

    def test_no_state_dir_means_no_eviction(self, registry, make_engine):
        async def go():
            supervisor = FleetSupervisor(registry, max_resident=1)
            for name in ("v1", "v2", "v3"):
                await supervisor.register(name, make_engine(name))
            return supervisor.stats()

        stats = run(go())
        assert stats["resident"] == 3
        assert stats["evictions"] == 0

    def test_rehydration_restores_engine(self, registry, make_engine, tmp_path):
        async def go():
            supervisor = FleetSupervisor(registry, state_dir=tmp_path)
            record = await supervisor.register("v1", make_engine("v1"))
            await supervisor.evict(record)
            assert not record.resident
            async with record.lock:
                engine = await supervisor.resident_engine(record)
            assert engine.tenant_id == "v1"
            assert record.resident and not record.evicted
            return supervisor

        supervisor = run(go())
        assert supervisor.rehydrations == 1
        assert registry.get(REHYDRATIONS_METRIC).value == 1

    def test_evict_without_state_dir_raises(self, registry, make_engine):
        async def go():
            supervisor = FleetSupervisor(registry)
            record = await supervisor.register("v1", make_engine("v1"))
            with pytest.raises(FleetError, match="state directory"):
                await supervisor.evict(record)

        run(go())

    def test_evicting_twice_is_a_noop(self, registry, make_engine, tmp_path):
        async def go():
            supervisor = FleetSupervisor(registry, state_dir=tmp_path)
            record = await supervisor.register("v1", make_engine("v1"))
            await supervisor.evict(record)
            await supervisor.evict(record)
            return supervisor.evictions

        assert run(go()) == 1


async def over_budget_fleet(registry, make_engine, state_dir, count=3):
    """``count`` tenants on a budget of 2; registration evicted the oldest."""
    supervisor = FleetSupervisor(registry, state_dir=state_dir, max_resident=2)
    records = [
        await supervisor.register(f"v{i}", make_engine(f"v{i}"))
        for i in range(1, count + 1)
    ]
    assert [r.evicted for r in records[:count - 2]] == [True] * (count - 2)
    return supervisor, records


class TestDeferredEviction:
    def test_rehydrate_returns_before_the_victims_checkpoint(
        self, registry, make_engine, tmp_path
    ):
        async def go():
            supervisor, (v1, _v2, _v3) = await over_budget_fleet(
                registry, make_engine, tmp_path
            )
            async with v1.lock:
                engine = await supervisor.resident_engine(v1)
                # Give a deferred eviction every chance to run early.
                await asyncio.sleep(0.05)
                during = (
                    supervisor.stats()["resident"],
                    (tmp_path / "v2").exists(),
                )
            await supervisor.settle()
            return engine, during, supervisor

        engine, during, supervisor = run(go())
        assert engine.tenant_id == "v1"
        assert during == (3, False)  # over budget until the reply is out
        assert supervisor.record("v2").evicted  # the LRU idle tenant
        assert (tmp_path / "v2" / TENANT_META_FILE).is_file()
        assert supervisor.evictions == 2

    def test_concurrent_rehydrations_settle_within_budget(
        self, registry, make_engine, tmp_path
    ):
        async def rehydrate(supervisor, record):
            async with record.lock:
                await supervisor.resident_engine(record)
                await asyncio.sleep(0.01)

        async def go():
            supervisor, records = await over_budget_fleet(
                registry, make_engine, tmp_path, count=5
            )
            evicted = [r for r in records if r.evicted]
            await asyncio.gather(*(rehydrate(supervisor, r) for r in evicted))
            await supervisor.settle()
            return supervisor.stats()

        stats = run(go())
        # Exactly back to budget: concurrent passes must not over-evict.
        assert stats["resident"] == 2
        assert stats["rehydrations"] == 3
        assert gauge_value(registry, "resident") == 2

    def test_a_locked_tenant_is_never_the_victim(
        self, registry, make_engine, tmp_path
    ):
        async def go():
            supervisor, (v1, v2, _v3) = await over_budget_fleet(
                registry, make_engine, tmp_path
            )
            async with v2.lock:  # v2 is least recently active, but busy
                async with v1.lock:
                    await supervisor.resident_engine(v1)
                await supervisor.settle()
            return supervisor

        supervisor = run(go())
        assert supervisor.record("v2").resident
        assert supervisor.record("v3").evicted
        assert supervisor.stats()["resident"] == 2

    def test_drain_with_an_eviction_pending_loses_nothing(
        self, registry, make_engine, tmp_path
    ):
        async def go():
            supervisor, (v1, _v2, _v3) = await over_budget_fleet(
                registry, make_engine, tmp_path
            )
            async with v1.lock:
                await supervisor.resident_engine(v1)
            flushed = await supervisor.drain()
            return flushed, supervisor.stats()

        flushed, stats = run(go())
        assert flushed == 2  # the deferred eviction took the third
        assert stats["resident"] == 0
        for name in ("v1", "v2", "v3"):
            directory = tmp_path / name
            assert (directory / TENANT_META_FILE).is_file()
            assert TenantEngine.rehydrate(directory).tenant_id == name

    def test_failed_deferred_eviction_is_reported_not_lost(
        self, registry, make_engine, tmp_path
    ):
        def broken_checkpoint(directory):
            raise OSError("disk full")

        async def go():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: reported.append(context)
            )
            supervisor, (v1, v2, _v3) = await over_budget_fleet(
                registry, make_engine, tmp_path
            )
            v2.engine.checkpoint = broken_checkpoint
            async with v1.lock:
                await supervisor.resident_engine(v1)
            await supervisor.settle()
            return reported, supervisor

        reported, supervisor = run(go())
        assert len(reported) == 1
        assert isinstance(reported[0]["exception"], OSError)
        assert supervisor.record("v2").resident  # nothing half-evicted
        assert supervisor.evictions == 1


    def test_close_waits_for_pending_and_defers_no_more(
        self, registry, make_engine, tmp_path
    ):
        async def go():
            supervisor, (v1, v2, _v3) = await over_budget_fleet(
                registry, make_engine, tmp_path
            )
            async with v1.lock:
                await supervisor.resident_engine(v1)
            await supervisor.close()
            after_close = supervisor.stats()["resident"]
            async with v2.lock:  # evicted by the pending pass above
                await supervisor.resident_engine(v2)
            await asyncio.sleep(0.05)
            return after_close, supervisor.stats()["resident"]

        after_close, later = run(go())
        assert after_close == 2  # the pending eviction ran to completion
        assert later == 3  # a rehydration after close evicts nobody


class TestLifecycle:
    def test_drain_flushes_every_resident(self, registry, make_engine, tmp_path):
        async def go():
            supervisor = FleetSupervisor(registry, state_dir=tmp_path)
            for name in ("v1", "v2"):
                await supervisor.register(name, make_engine(name))
            first = await supervisor.drain()
            second = await supervisor.drain()
            return first, second, supervisor.stats()

        first, second, stats = run(go())
        assert first == 2 and second == 0
        assert stats["resident"] == 0
        assert {p.name for p in tmp_path.iterdir()} == {"v1", "v2"}

    def test_adopt_checkpoints_relists_drained_fleet(
        self, registry, make_engine, tmp_path
    ):
        async def go():
            old = FleetSupervisor(registry, state_dir=tmp_path)
            await old.register("v1", make_engine("v1"))
            await old.drain()
            fresh = FleetSupervisor(registry, state_dir=tmp_path)
            adopted = fresh.adopt_checkpoints()
            assert fresh.adopt_checkpoints() == []  # idempotent
            record = fresh.record("v1")
            async with record.lock:
                engine = await fresh.resident_engine(record)
            return adopted, engine.tenant_id

        adopted, tenant_id = run(go())
        assert adopted == ["v1"]
        assert tenant_id == "v1"

    def test_remove_forgets_tenant_and_checkpoint(
        self, registry, make_engine, tmp_path
    ):
        async def go():
            supervisor = FleetSupervisor(registry, state_dir=tmp_path)
            record = await supervisor.register("v1", make_engine("v1"))
            await supervisor.evict(record)
            assert (tmp_path / "v1").exists()
            await supervisor.remove("v1")
            return supervisor

        supervisor = run(go())
        assert not (tmp_path / "v1").exists()
        with pytest.raises(FleetError, match="unknown tenant"):
            supervisor.record("v1")
