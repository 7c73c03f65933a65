"""The structure-of-arrays trace container and the hot record classes.

Pins the binary trace codec that ``TraceStore`` ships traces in (exact
round trips, rejection of malformed containers, quarantine of corrupt
store entries) and the ``__slots__`` layout of the hot per-instruction
classes.
"""

import dataclasses
import pickle

import pytest

from repro.engine.soatrace import TraceCodecError, decode_trace, encode_trace
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.suite import SUITE

N = 5_000

_TRACES = {}


def _trace(app, n=N, seed=None):
    key = (app, n, seed)
    if key not in _TRACES:
        profile = SUITE[app]
        if seed is not None:
            profile = dataclasses.replace(profile, seed=seed)
        _TRACES[key] = SyntheticWorkload(profile).generate(n)
    return _TRACES[key]


class TestTraceCodec:
    @pytest.mark.parametrize("seed_shift", [0, 17])
    @pytest.mark.parametrize("app", sorted(SUITE))
    def test_roundtrip_every_suite_app(self, app, seed_shift):
        seed = SUITE[app].seed + seed_shift
        trace = _trace(app, n=1_200, seed=seed)
        key = f"{app}-{seed}"
        served = decode_trace(encode_trace(trace, key), key)
        assert len(served) == len(trace)
        for a, b in zip(trace, served):
            assert (a.seq, a.pc, a.op, a.srcs, a.dst, a.mem_addr,
                    a.mem_size, a.taken, a.target) == \
                   (b.seq, b.pc, b.op, b.srcs, b.dst, b.mem_addr,
                    b.mem_size, b.taken, b.target)
        # And a re-encode is byte-identical (canonical container).
        assert encode_trace(served, key) == encode_trace(trace, key)

    def test_malformed_containers_raise_codec_error(self):
        trace = _trace("mcf", n=600)
        raw = encode_trace(trace, "k1")
        for mutant in (b"", b"XXXX" + raw[4:],        # magic
                       raw[:40], raw[:-3],            # truncations
                       raw[:-3] + bytes(3),           # payload bit-rot
                       raw + b"\x00"):                # trailing garbage
            with pytest.raises(TraceCodecError):
                decode_trace(mutant, "k1")
        with pytest.raises(TraceCodecError):
            decode_trace(raw, "other-key")

    def test_store_quarantines_corrupt_binary_entry(self, tmp_path):
        from repro.service.store import TraceStore, trace_key
        profile = SUITE["mcf"]
        store = TraceStore(tmp_path / "traces")
        store.put(profile, 600, _trace("mcf", n=600))
        key = trace_key(profile, 600)
        path = store._path(key)
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF                      # flip one payload byte
        path.write_bytes(bytes(raw))
        assert store.get(profile, 600) is None   # no crash
        assert not path.exists()                 # moved, not served
        assert (tmp_path / "traces" / "quarantine" / path.name).exists()
        assert store.stats["corrupt"] == 1
        assert store.stats["quarantined"] == 1
        # A regenerated entry serves normally afterwards.
        store.put(profile, 600, _trace("mcf", n=600))
        assert store.get(profile, 600) is not None

    def test_store_quarantines_truncated_header(self, tmp_path):
        from repro.service.store import TraceStore, trace_key
        profile = SUITE["hmmer"]
        store = TraceStore(tmp_path / "traces")
        store.put(profile, 600, _trace("hmmer", n=600))
        path = store._path(trace_key(profile, 600))
        path.write_bytes(path.read_bytes()[:16])
        assert store.get(profile, 600) is None
        assert store.stats["quarantined"] == 1


class TestSlotsPins:
    """The hot per-instruction classes must stay ``__dict__``-free (one
    record per dynamic instruction adds up) while remaining picklable
    (the pool protocol) and codec-round-trippable (the TraceStore wire)."""

    def test_hot_classes_have_no_dict(self):
        from repro.engine.core_base import InflightInst
        from repro.isa.opcodes import OpClass
        from repro.workloads.generator import _Block, _MemStream, _Slot
        inst = _trace("mcf", n=10)[0]
        samples = [inst, InflightInst(inst, []),
                   _MemStream(kind="seq", base=0, span=64),
                   _Slot(pc=0, op=OpClass.INT_ALU), _Block(pc=0)]
        for obj in samples:
            assert not hasattr(obj, "__dict__"), type(obj)
            with pytest.raises(AttributeError):
                obj.not_a_slot = 1

    def test_dyninst_pickles_and_codec_roundtrips(self, tmp_path):
        from repro.service.store import TraceStore
        trace = _trace("mcf", n=300)
        clone = pickle.loads(pickle.dumps(trace[0]))
        assert (clone.seq, clone.pc, clone.op, clone.srcs,
                clone.dst) == (trace[0].seq, trace[0].pc, trace[0].op,
                               trace[0].srcs, trace[0].dst)
        store = TraceStore(tmp_path / "traces")
        store.put(SUITE["mcf"], 300, trace)
        served = store.get(SUITE["mcf"], 300)
        assert [i.seq for i in served] == [i.seq for i in trace]
