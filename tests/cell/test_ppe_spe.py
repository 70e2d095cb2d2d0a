"""PPE spawning behaviour and SPE bus-endpoint routing."""

from __future__ import annotations

import pytest

from repro.cell.machine import Machine
from repro.cell.spe import SPE
from repro.core.activity import GlobalObject, ObjRef, SpawnSpec, TLPActivity
from repro.core.messages import FrameFreed, ReadResponse, StoreMsg, WriteAck
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.testing import small_config


def writer_template(name="w"):
    b = ThreadBuilder(name)
    b.slot("out")
    b.slot("val")
    with b.block(BlockKind.PL):
        b.load("rout", 0)
        b.load("v", 1)
    with b.block(BlockKind.EX):
        b.write("rout", 0, "v")
        b.stop()
    return b.build()


class TestPPE:
    def make_machine(self, spawns):
        act = TLPActivity(
            name="t",
            templates=[writer_template()],
            globals_=[GlobalObject.zeros("out", 4)],
            spawns=spawns,
        )
        m = Machine(small_config(num_spes=2))
        m.load(act)
        return m, act

    def test_sequential_spawns_in_declared_order(self):
        spawns = [
            SpawnSpec(template="w", stores={0: ObjRef("out", offset=4 * i),
                                            1: 100 + i})
            for i in range(3)
        ]
        m, act = self.make_machine(spawns)
        m.run()
        assert m.read_global("out")[:3] == [100, 101, 102]
        assert len(m.ppe.spawned_handles) == 3

    def test_done_only_after_all_stores_sent(self):
        m, act = self.make_machine(
            [SpawnSpec(template="w", stores={0: ObjRef("out"), 1: 7})]
        )
        assert not m.ppe.done
        m.run()
        assert m.ppe.done

    def test_spawn_with_no_stores_fires_immediately(self):
        b = ThreadBuilder("noarg")
        with b.block(BlockKind.EX):
            b.stop()
        act = TLPActivity(name="n", templates=[b.build()],
                          spawns=[SpawnSpec(template="noarg")])
        m = Machine(small_config(num_spes=1))
        m.load(act)
        m.run()
        assert m.threads_completed == 1

    def test_unsolicited_response_rejected(self):
        m, _ = self.make_machine(
            [SpawnSpec(template="w", stores={0: ObjRef("out"), 1: 1})]
        )
        from repro.core.messages import FallocResponse

        with pytest.raises(RuntimeError, match="unsolicited"):
            m.ppe.deliver(FallocResponse(request_id=1, handle=0, tid=0))

    def test_describe_state(self):
        m, _ = self.make_machine(
            [SpawnSpec(template="w", stores={0: ObjRef("out"), 1: 1})]
        )
        assert "spawn" in m.ppe.describe_state()


class TestSPERouting:
    def test_unroutable_message_raises(self):
        spe = SPE(0, small_config(num_spes=1))
        with pytest.raises(RuntimeError, match="route"):
            spe.deliver(FrameFreed(spe_id=0))

    def test_read_response_reaches_spu(self):
        m = Machine(small_config(num_spes=1))
        spe = m.spes[0]
        # A ReadResponse with no pending READ is an architectural bug and
        # must fault loudly rather than vanish.
        from repro.cell.spu import SpuFault

        with pytest.raises(SpuFault):
            spe.deliver(ReadResponse(reply_key=0, value=1))

    def test_write_ack_without_outstanding_write_faults(self):
        m = Machine(small_config(num_spes=1))
        from repro.cell.spu import SpuFault

        with pytest.raises(SpuFault, match="credit underflow"):
            m.spes[0].deliver(WriteAck(requester_spe=0))

    def test_store_message_routes_to_lse(self):
        m = Machine(small_config(num_spes=1))
        spe = m.spes[0]
        before = len(spe.lse._queue)
        spe.deliver(StoreMsg(handle=0, slot=0, value=1))
        assert len(spe.lse._queue) == before + 1


class TestDSEUnit:
    def test_least_loaded_prefers_idle(self):
        from repro.core.dse import DSE
        from repro.sim.config import DSEConfig

        dse = DSE("d", [0, 1], DSEConfig())
        dse.load[0] = 5
        assert dse._pick_spe() == 1

    def test_least_loaded_ties_break_by_id(self):
        from repro.core.dse import DSE
        from repro.sim.config import DSEConfig

        dse = DSE("d", [3, 1, 2], DSEConfig())
        assert dse._pick_spe() == 1

    def test_empty_spe_list_rejected(self):
        from repro.core.dse import DSE
        from repro.sim.config import DSEConfig

        with pytest.raises(ValueError):
            DSE("d", [], DSEConfig())
