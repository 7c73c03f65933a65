"""TAGE, BTB and fetch-unit behaviour."""

import pytest

from repro.common.params import BranchPredictorConfig, make_ino_config
from repro.common.stats import Stats
from repro.engine.stream import InstStream
from repro.frontend.btb import Btb
from repro.frontend.fetch import FetchUnit
from repro.frontend.tage import Tage
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryHierarchy


class TestTage:
    def test_learns_always_taken(self):
        tage = Tage()
        pc = 0x4000
        for _ in range(64):
            tage.update(pc, True)
        assert tage.predict(pc) is True

    def test_learns_always_not_taken(self):
        tage = Tage()
        pc = 0x4100
        for _ in range(64):
            tage.update(pc, False)
        assert tage.predict(pc) is False

    def test_learns_loop_pattern_with_history(self):
        """A (T,T,T,NT) loop pattern is history-predictable: after training,
        the mispredict rate over one more sweep should be low."""
        tage = Tage()
        pc = 0x4200
        pattern = [True, True, True, False]
        for _ in range(200):
            for taken in pattern:
                tage.update(pc, taken)
        wrong = 0
        for _ in range(25):
            for taken in pattern:
                if tage.predict(pc) != taken:
                    wrong += 1
                tage.update(pc, taken)
        assert wrong <= 10  # bimodal alone would miss ~25 of 100

    def test_random_alias_free_pcs(self):
        """Different PCs train independently."""
        tage = Tage()
        for _ in range(32):
            tage.update(0x5000, True)
            tage.update(0x5004, False)
        assert tage.predict(0x5000) is True
        assert tage.predict(0x5004) is False

    def test_mispredict_rate_property(self):
        tage = Tage()
        for i in range(50):
            tage.update(0x6000, True)
        assert 0.0 <= tage.mispredict_rate <= 1.0

    def test_ghr_bounded(self):
        cfg = BranchPredictorConfig()
        tage = Tage(cfg)
        for i in range(100):
            tage.update(0x7000 + 4 * i, True)
        assert tage.ghr < (1 << cfg.ghr_bits)


class TestBtb:
    def test_miss_then_hit(self):
        btb = Btb()
        assert btb.lookup(0x4000) is None
        btb.update(0x4000, 0x5000)
        assert btb.lookup(0x4000) == 0x5000

    def test_update_replaces_target(self):
        btb = Btb()
        btb.update(0x4000, 0x5000)
        btb.update(0x4000, 0x6000)
        assert btb.lookup(0x4000) == 0x6000

    def test_lru_within_set(self):
        btb = Btb(n_sets=1, n_ways=2)
        btb.update(0x0, 1)
        btb.update(0x4, 2)
        btb.lookup(0x0)       # refresh
        btb.update(0x8, 3)    # evicts 0x4
        assert btb.lookup(0x0) == 1
        assert btb.lookup(0x4) is None


def branch(pc, taken, target, seq=-1):
    return DynInst(pc=pc, op=OpClass.BRANCH, srcs=(1,), taken=taken,
                   target=target if taken else None, seq=seq)


def make_fetch(insts):
    cfg = make_ino_config()
    stats = Stats()
    stream = InstStream(insts)
    hier = MemoryHierarchy(stats=stats)
    # Warm the I-cache so the tests observe steady-state fetch behaviour.
    for inst in insts:
        hier.l1i.install_prefetch(inst.pc, fill_at=-1)
    return FetchUnit(cfg, stream, hier, stats=stats), stream


class TestFetchUnit:
    def test_supplies_width_per_cycle(self):
        insts = [DynInst(pc=0x1000 + 4 * i, op=OpClass.INT_ALU, srcs=(),
                         dst=1) for i in range(8)]
        fetch, _ = make_fetch(insts)
        fetch.tick(0)
        fetch.tick(1)
        got = fetch.pop_ready(0 + fetch.cfg.frontend_latency, 4)
        assert len(got) == 2  # only cycle-0 fetches are decode-ready

    def test_mispredicted_branch_gates_fetch(self):
        insts = [branch(0x1000, True, 0x2000)] + [
            DynInst(pc=0x2000 + 4 * i, op=OpClass.INT_ALU) for i in range(4)]
        fetch, _ = make_fetch(insts)
        fetch.tick(0)   # BTB-cold taken branch => mispredict
        assert fetch.blocked_seq == 0
        fetch.tick(1)
        assert len(fetch.queue) == 1  # nothing fetched while gated

    def test_resolve_resumes_after_penalty(self):
        insts = [branch(0x1000, True, 0x2000)] + [
            DynInst(pc=0x2000 + 4 * i, op=OpClass.INT_ALU) for i in range(4)]
        fetch, _ = make_fetch(insts)
        fetch.tick(0)
        fetch.resolve_branch(0, done_cycle=10)
        assert fetch.blocked_seq is None
        resume = 10 + fetch.cfg.mispredict_penalty
        fetch.tick(resume - 1)
        assert len(fetch.queue) == 1  # still stalled
        fetch.tick(resume)
        assert len(fetch.queue) > 1

    def test_predicted_taken_branch_learns(self):
        # Same branch twice: second time the BTB knows the target.
        insts = ([branch(0x1000, True, 0x2000, seq=0)]
                 + [branch(0x1000, True, 0x2000, seq=1)]
                 + [DynInst(pc=0x2000, op=OpClass.INT_ALU)])
        fetch, _ = make_fetch(insts)
        fetch.tick(0)
        fetch.resolve_branch(0, 5)
        fetch.tick(5 + fetch.cfg.mispredict_penalty)
        # The second instance was direction-predicted (bimodal weakly taken
        # initialises to taken) and the BTB now has the target.
        assert fetch.blocked_seq is None

    def test_squash_rewinds_stream(self):
        insts = [DynInst(pc=0x1000 + 4 * i, op=OpClass.INT_ALU)
                 for i in range(8)]
        fetch, stream = make_fetch(insts)
        fetch.tick(0)
        fetch.tick(1)
        fetch.squash(1, resume_cycle=20)
        assert stream.cursor == 1
        assert all(inst.seq < 1 for _, inst in fetch.queue)

    def test_drained(self):
        insts = [DynInst(pc=0x1000, op=OpClass.INT_ALU)]
        fetch, _ = make_fetch(insts)
        assert not fetch.drained
        fetch.tick(0)
        fetch.pop_ready(100, 4)
        assert fetch.drained


class TestInstStream:
    def test_seq_assignment(self):
        stream = InstStream([DynInst(pc=0, op=OpClass.NOP) for _ in range(3)])
        assert [stream.fetch().seq for _ in range(3)] == [0, 1, 2]
        assert stream.fetch() is None

    def test_rewind(self):
        stream = InstStream([DynInst(pc=0, op=OpClass.NOP) for _ in range(3)])
        stream.fetch()
        stream.fetch()
        stream.rewind(1)
        assert stream.fetch().seq == 1

    def test_rewind_forward_rejected(self):
        stream = InstStream([DynInst(pc=0, op=OpClass.NOP) for _ in range(3)])
        with pytest.raises(ValueError):
            stream.rewind(2)

    def test_peek_does_not_consume(self):
        stream = InstStream([DynInst(pc=0, op=OpClass.NOP)])
        assert stream.peek() is stream.peek()
        assert not stream.exhausted
