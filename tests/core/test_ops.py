"""Tests for the CSI IR (repro.core.ops)."""

import contextlib
import sys
import threading
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ops
from repro.core.ops import Operation, Region, RegionParseError, ThreadCode, parse_region


class TestOperation:
    def test_fields(self):
        op = Operation(0, 1, "add", ("a", "b"), ("c",), imm=None)
        assert op.key == (0, 1)
        assert op.reads == ("a", "b")

    def test_render_with_writes(self):
        op = Operation(0, 0, "add", ("a",), ("c",), imm=3)
        assert op.render() == "c = add a #3"

    def test_render_without_writes(self):
        op = Operation(0, 0, "st", ("y", "v"), ())
        assert op.render() == "st y v"

    @pytest.mark.parametrize("kwargs", [
        dict(thread=-1, index=0, opcode="x"),
        dict(thread=0, index=-1, opcode="x"),
        dict(thread=0, index=0, opcode=""),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Operation(**kwargs)


class TestThreadCode:
    def test_from_specs_assigns_indices(self):
        tc = ThreadCode.from_specs(2, [("ld", ["x"], ["a"]), ("st", ["y", "a"], [])])
        assert [op.index for op in tc] == [0, 1]
        assert all(op.thread == 2 for op in tc)

    def test_wrong_thread_rejected(self):
        op = Operation(1, 0, "add")
        with pytest.raises(ValueError):
            ThreadCode(0, (op,))

    def test_wrong_index_rejected(self):
        op = Operation(0, 5, "add")
        with pytest.raises(ValueError):
            ThreadCode(0, (op,))

    def test_from_specs_reindexes_operations(self):
        src = Operation(9, 9, "add", ("a",), ("b",))
        tc = ThreadCode.from_specs(0, [src])
        assert tc.ops[0].key == (0, 0)
        assert tc.ops[0].opcode == "add"


class TestRegion:
    def test_from_sequences(self):
        region = Region.from_sequences([
            [("ld", ["x"], ["a"])],
            [("ld", ["x"], ["b"]), ("st", ["y", "b"], [])],
        ])
        assert region.num_threads == 2
        assert region.num_ops == 3
        assert region.opcodes() == {"ld", "st"}

    def test_thread_position_must_match_id(self):
        tc = ThreadCode.from_specs(1, [("ld", ["x"], ["a"])])
        with pytest.raises(ValueError):
            Region((tc,))

    def test_render_roundtrip_through_parser(self):
        region = Region.from_sequences([
            [("ld", ["x"], ["a"]), ("add", ["a", "a"], ["b"])],
            [("mul", ["x", "x"], ["c"])],
        ])
        again = parse_region(region.render())
        assert again.num_ops == region.num_ops
        assert [op.opcode for op in again.all_ops()] == [op.opcode for op in region.all_ops()]


class TestParseRegion:
    def test_basic(self):
        region = parse_region("""
            thread 0:
                t0 = ld x
                st y t0
            thread 1:
                u0 = add x #2
        """)
        assert region.num_threads == 2
        op = region[1].ops[0]
        assert op.opcode == "add" and op.imm == 2 and op.reads == ("x",)

    def test_comments_and_blank_lines(self):
        region = parse_region("""
            ; whole-line comment
            thread 0:
                t0 = ld x   ; trailing comment

                st y t0
        """)
        assert len(region[0]) == 2

    def test_float_immediate(self):
        region = parse_region("thread 0:\n  a = push #2.5\n")
        assert region[0].ops[0].imm == pytest.approx(2.5)

    def test_multiple_writes(self):
        region = parse_region("thread 0:\n  a, b = divmod x y\n")
        assert region[0].ops[0].writes == ("a", "b")

    @pytest.mark.parametrize("text", [
        "t0 = ld x",                      # op before thread header
        "thread 1:\n  a = ld x",          # wrong first thread id
        "thread 0:\nthread 0:\n",         # repeated id
        "thread 0:\n  a = ld #1 #2\n",    # two immediates
        "thread 0:\n   = ld x\n",         # empty writes
        "",                               # nothing at all
        "thread zero:\n  a = ld x\n",     # bad id
    ])
    def test_malformed(self, text):
        with pytest.raises(RegionParseError):
            parse_region(text)

    def test_empty_thread_allowed(self):
        region = parse_region("thread 0:\nthread 1:\n  a = ld x\n")
        assert len(region[0]) == 0 and len(region[1]) == 1


# -- parser equivalence ------------------------------------------------------

#: Symbol characters: no whitespace and none of ``;``, ``=``, ``,``; a
#: ``#`` may sit inside a token but never start one.
_SYMBOL = st.text(alphabet="abcxyz019_.$#", min_size=1, max_size=5).filter(
    lambda s: not s.startswith("#"))
_IMM = st.one_of(
    st.none(),
    st.integers(min_value=-10**20, max_value=10**20),
    st.floats(allow_nan=False, allow_infinity=False),
)
_OP = st.tuples(
    st.lists(_SYMBOL, max_size=3),      # writes
    _SYMBOL,                            # opcode
    st.lists(_SYMBOL, max_size=3),      # reads
    _IMM,
    st.sampled_from(["{lhs} = {rhs}", "{lhs}={rhs}", "\t{lhs} =\t{rhs}  "]),
    st.sampled_from(["", " ; note", "\t;x = y, #1 ; z"]),
    st.booleans(),                      # the immediate before the reads
)
_SPEC = st.lists(st.lists(_OP, max_size=5), min_size=1, max_size=4)


def _render_spec(spec, data) -> str:
    """Region text for ``spec``, with the layout noise ``data`` draws."""
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = [data.draw(st.sampled_from(["", "; header comment", "  \t"]))]
    for t, ops in enumerate(spec):
        lines.append(data.draw(st.sampled_from(
            [f"thread {t}:", f"  thread {t} :", f"\tthread {t}::"])))
        for writes, opcode, reads, imm, layout, comment, imm_first in ops:
            operands = list(reads)
            if imm is not None:
                operands.insert(0 if imm_first else len(operands),
                                f"#{imm!r}")
            rhs = " ".join([opcode, *operands])
            if writes:
                lhs = data.draw(st.sampled_from([", ", ",", " ,  "])).join(
                    writes)
                line = layout.format(lhs=lhs, rhs=rhs)
            else:
                line = rhs
            lines.append("    " + line + comment)
            if data.draw(st.booleans()):
                lines.append("")
    return newline.join(lines) + newline


class TestParseEquivalence:
    """``parse_region`` gives the region its generating spec describes."""

    @settings(max_examples=300, deadline=None)
    @given(spec=_SPEC, data=st.data())
    def test_generated_text_parses_to_its_spec(self, fresh_table, spec, data):
        text = _render_spec(spec, data)
        expected = Region(tuple(
            ThreadCode(t, tuple(
                Operation(t, i, opcode, tuple(reads), tuple(writes), imm)
                for i, (writes, opcode, reads, imm, *_layout)
                in enumerate(ops)))
            for t, ops in enumerate(spec)))
        with fresh_table():
            region = parse_region(text)
            again = parse_region(text)
        assert region == expected and again == expected
        # The second parse is the first's interned blocks.
        assert all(a is b for a, b in zip(again.threads, region.threads))
        for got, want in zip(region.all_ops(), expected.all_ops()):
            # Equal and of the same type: 1 and 1.0 must not blur.
            assert type(got.imm) is type(want.imm)
            assert vars(got) == vars(want)
        assert parse_region(region.render()) == region

    def test_hash_inside_a_token_is_an_operand(self):
        region = parse_region("thread 0:\n  a#1 = add x#1 #2 y#\n")
        op = region[0].ops[0]
        assert (op.writes, op.reads, op.imm) == (("a#1",), ("x#1", "y#"), 2)

    def test_parsed_objects_are_the_frozen_dataclasses(self):
        region = parse_region("thread 0:\n  a = ld x\n")
        op = region[0].ops[0]
        assert type(op) is Operation and hash(op) == hash(
            Operation(0, 0, "ld", ("x",), ("a",)))
        with pytest.raises(AttributeError):
            op.opcode = "st"


#: Malformed text -> the exact message, line number included.  A served
#: submit's client reads these as ``bad submit payload: <message>``.
MALFORMED = [
    ("", "no threads in region text"),
    ("; only a comment\n\n", "no threads in region text"),
    ("a = ld x", "line 1: operation before any thread header"),
    ("\n\n  ld x ; c", "line 3: operation before any thread header"),
    ("thread 1:", "line 1: expected thread 0, got 1"),
    ("thread 0:\nthread 0:", "line 2: expected thread 1, got 0"),
    ("thread 0:\r\n a = ld x\r\nthread 2:", "line 3: expected thread 1, got 2"),
    ("thread x:", "line 1: bad thread id 'x'"),
    ("thread 0 1:", "line 1: bad thread header 'thread 0 1:'"),
    ("  thread:  ; c", "line 1: bad thread header '  thread:  ; c'"),
    ("threadA = ld x", "line 1: bad thread header 'threadA = ld x'"),
    ("thread 0:\n = ld x", "line 2: empty destination list"),
    ("thread 0:\n , ,= ld x", "line 2: empty destination list"),
    ("thread 0:\n a =", "line 2: empty operation"),
    ("thread 0:\n a =  ; c", "line 2: empty operation"),
    ("thread 0:\n a = ld #1 #2", "line 2: multiple immediates"),
    ("thread 0:\n a = ld x\n\n b = ld #1 x #2.5 ; c",
     "line 4: multiple immediates"),
    ("thread 0:\n a = ld #1 #x", "line 2: multiple immediates"),
    # A bad immediate's message has never carried its line.
    ("thread 0:\n a = ld #x", "bad immediate '#x'"),
    ("thread 0:\n a = ld #", "bad immediate '#'"),
    ("thread 0:\n a = ld #0x10", "bad immediate '#0x10'"),
    # NaN equals nothing, itself included: every spelling float() takes.
    ("thread 0:\n a = ld #nan", "bad immediate '#nan'"),
    ("thread 0:\n a = ld #NaN", "bad immediate '#NaN'"),
    ("thread 0:\n a = ld #-nan", "bad immediate '#-nan'"),
    ("thread 0:\n a = ld x #+NAN ; c", "bad immediate '#+NAN'"),
]


def _blocks(text: str) -> list[str]:
    """``text``'s thread blocks, each from its header line to the next."""
    lines = text.splitlines(keepends=True)
    heads = [i for i, line in enumerate(lines)
             if line.lstrip().startswith("thread")]
    return ["".join(lines[a:b]).replace("\r\n", "\n")
            for a, b in zip(heads, heads[1:] + [len(lines)])]


class TestParseErrors:
    @pytest.mark.parametrize("text,message", MALFORMED)
    def test_message(self, text, message):
        with pytest.raises(RegionParseError) as info:
            parse_region(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", MALFORMED)
    def test_message_from_a_warm_table(self, fresh_table, text, message):
        # Intern each block that parses at its position, whether it
        # comes before the fault or after it; the fault's block is
        # looked up, missed and parsed, and says what it said.
        with fresh_table() as table:
            for t, block in enumerate(_blocks(text)):
                filler = "".join(f"thread {k}:\n" for k in range(t))
                with contextlib.suppress(RegionParseError):
                    parse_region(filler + block)
            warmed = dict(table)
            with pytest.raises(RegionParseError) as info:
                parse_region(text)
            assert table == warmed
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", MALFORMED[::4])
    def test_reaches_a_client_as_bad_submit_payload(self, text, message):
        from repro import api
        from repro.obs import Counters
        from repro.service import protocol

        wire = protocol.request_to_wire(api.InductionRequest(text))
        for fingerprint in (protocol.request_from_wire,
                            protocol.SubmitMemo(Counters()).fingerprint):
            with pytest.raises(protocol.ProtocolError) as info:
                fingerprint(wire)
            assert str(info.value) == f"bad submit payload: {message}"


# -- the block table ---------------------------------------------------------

HANDLER = "thread {t}:\n    ir = fetch pc ; {note}\n    pc = incpc pc\n"


def _handler_region(notes) -> str:
    return "".join(HANDLER.format(t=t, note=note) for t, note in enumerate(notes))


class TestBlockTable:
    def test_a_hit_is_the_same_frozen_threadcode(self, fresh_table):
        with fresh_table() as table:
            first = parse_region(_handler_region(["a", "b"]))
            # Block 0 again, block 1 new: one hit and one miss.
            second = parse_region(_handler_region(["a", "c"]))
            assert len(table) == 3
        assert second[0] is first[0] and second[0].ops[1] is first[0].ops[1]
        assert second[1] is not first[1] and second[1] == first[1]

    def test_key_is_position_and_text(self, fresh_table):
        body = "    a = ld x\n"
        with fresh_table() as table:
            one = parse_region("thread 0:\n" + body + "thread 1:\n" + body)
            assert len(table) == 2
            assert one[0] is not one[1]
            assert (one[0].thread, one[1].thread) == (0, 1)
            # Another spelling of the same thread is another block.
            two = parse_region("thread 0: ; note\n" + body)
            assert two[0] is not one[0] and two[0] == one[0]
            assert len(table) == 3

    def test_bounded_under_churn(self, fresh_table):
        size = ops.BLOCK_TABLE_SIZE
        with fresh_table() as table:
            regions = [parse_region(_handler_region([f"n{k}"]))
                       for k in range(size + 40)]
            assert len(table) == size
            # Full: a new block parses, is not interned and evicts nothing.
            kept = dict(table)
            again = parse_region(_handler_region([f"n{size + 1}"]))
            assert again == regions[size + 1]
            assert again[0] is not regions[size + 1][0]
            assert table == kept
            # What the table holds still hits.
            assert parse_region(_handler_region(["n0"]))[0] is regions[0][0]
        want = parse_region("thread 0:\n    ir = fetch pc\n    pc = incpc pc\n")
        assert all(r == want for r in regions)

    def test_an_oversize_block_is_parsed_but_not_interned(self, fresh_table):
        note = "x" * ops.BLOCK_MAX_CHARS
        text = _handler_region([note])
        with fresh_table() as table:
            first = parse_region(text)
            second = parse_region(text)
            assert table == {}
        assert first == second and first[0] is not second[0]
        assert [op.opcode for op in first[0]] == ["fetch", "incpc"]

    def test_a_failed_block_is_never_interned(self, fresh_table):
        with fresh_table() as table:
            with pytest.raises(RegionParseError):
                parse_region("thread 0:\n    a = ld x\nthread 1:\n    b = ld #q\n")
            assert list(table) == [(0, "thread 0:\n    a = ld x\n")]

    def test_concurrent_parses_equal_a_serial_parse(self, fresh_table):
        # 8 threads on 2 cores, switching often: shared regions race for
        # the same keys, and each thread's own blocks race for the last
        # free entries, which an unlocked check-then-insert would overfill.
        shared = [_handler_region([f"s{(k + j) % 12}" for j in range(4)])
                  for k in range(24)]
        own = [[_handler_region([f"w{w}-{k}"]) for k in range(40)]
               for w in range(8)]
        with fresh_table():
            serial = [[parse_region(text) for text in shared[w:] + shared[:w] + own[w]]
                      for w in range(8)]
        results: dict[int, list[Region]] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def work(w: int) -> None:
            try:
                start.wait(timeout=30)
                texts = shared[w:] + shared[:w] + own[w]
                results[w] = [parse_region(text) for text in texts]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fresh_table() as table:
                workers = [threading.Thread(target=work, args=(w,))
                           for w in range(8)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                # 48 shared blocks and 320 own ones: the table fills
                # exactly to its bound.
                assert len(table) == ops.BLOCK_TABLE_SIZE
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert [results[w] for w in range(8)] == serial


class TestParseCostIsLinear:
    """A server parses any submit frame in its connection thread, so the
    parse must stay linear in the text however it is laid out.  The
    bounds are generous: on a 2-vCPU host the texts below parse in
    about 0.2 s and 0.01 s, and a parser that rescans from the text's
    start per block or per ``thread`` token took 9 s and 11 s."""

    def test_many_one_line_threads(self, fresh_table):
        n = 40_000
        text = "".join(f"thread {t}:\n    a = ld x\n" for t in range(n))
        with fresh_table():
            t0 = perf_counter()
            region = parse_region(text)
            elapsed = perf_counter() - t0
        assert region.num_threads == n and region[n - 1].ops[0].opcode == "ld"
        assert elapsed < 4.0

    def test_many_thread_tokens_on_one_line(self, fresh_table):
        word = "thread" * 200_000
        with fresh_table():
            t0 = perf_counter()
            region = parse_region(f"thread 0:\n    a = add x{word}\n")
            with pytest.raises(RegionParseError) as info:
                parse_region(f"a = add {word}\nthread 0:\n")
            elapsed = perf_counter() - t0
        assert region[0].ops[0].reads == (f"x{word}",)
        assert str(info.value) == "line 1: operation before any thread header"
        assert elapsed < 2.0

    def test_a_line_number_counts_the_blocks_that_hit(self, fresh_table):
        text = "".join(f"thread {t}:\n    a = ld x\n" for t in range(300))
        with fresh_table():
            parse_region(text)  # interns blocks 0-255; 256-299 stay misses
            with pytest.raises(RegionParseError) as info:
                parse_region(text + "thread 300:\n\n    b =\n")
        assert str(info.value) == "line 603: empty operation"
