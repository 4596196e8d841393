"""Tests for the write-ahead journal."""

import json

import pytest

from repro.errors import SerializationError
from repro.harness.journal import Journal, read_journal


class TestJournal:
    def test_record_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record("run_start", jobs=["a", "b"], parallel=1)
            journal.record("job_start", job="a", attempt=1)
        records = read_journal(path)
        assert [r["event"] for r in records] == ["run_start", "job_start"]
        assert records[0]["jobs"] == ["a", "b"]
        assert records[1]["attempt"] == 1

    def test_records_hit_disk_immediately(self, tmp_path):
        # WAL property: the record is readable before close().
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record("job_start", job="a", attempt=1)
        assert read_journal(path) == [
            {"event": "job_start", "job": "a", "attempt": 1}
        ]
        journal.close()

    def test_append_across_reopens(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record("run_start")
        with Journal(path) as journal:  # a resumed run appends
            journal.record("run_start", resume=True)
        assert len(read_journal(path)) == 2

    def test_truncated_tail_is_dropped(self, tmp_path):
        # SIGKILL mid-append leaves a partial final line; replay must
        # keep everything before it.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record("run_start")
            journal.record("job_start", job="a", attempt=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "job_succ')  # the crash signature
        records = read_journal(path)
        assert [r["event"] for r in records] == ["run_start", "job_start"]

    def test_truncation_at_every_byte_of_last_record(self, tmp_path):
        # Crash-mid-append can cut the tail at *any* byte — including
        # inside a multi-byte UTF-8 sequence (the non-ASCII error text
        # below).  Every prefix must read as a clean two-record journal,
        # never as corruption.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record("run_start", jobs=["a"])
            journal.record("job_start", job="a", attempt=1)
            journal.record("job_retry", job="a", attempt=1,
                           error="café über résumé — ¡kaboom! ✂")
        full = path.read_bytes()
        lines = full.splitlines(keepends=True)
        prefix = b"".join(lines[:-1])
        last = lines[-1]
        for cut in range(len(last)):
            path.write_bytes(prefix + last[:cut])
            records = read_journal(path)
            events = [r["event"] for r in records]
            if cut == len(last) - 1:
                # Only the newline is missing: the record is complete
                # and keeping it is correct.
                assert events == ["run_start", "job_start", "job_retry"]
            else:
                assert events == ["run_start", "job_start"], (
                    f"truncation at byte {cut} of the last record"
                )
        # The intact journal still reads all three.
        path.write_bytes(full)
        assert len(read_journal(path)) == 3

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = json.dumps({"event": "run_start"})
        path.write_text(f"{good}\nGARBAGE NOT JSON\n{good}\n")
        with pytest.raises(SerializationError, match="journal line 2"):
            read_journal(path)

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '"job_start"', "null"])
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_non_object_line_raises(self, tmp_path, line, position):
        # Valid JSON that is not a record is corruption wherever it sits:
        # no prefix of a written record parses as a non-object.
        path = tmp_path / "journal.jsonl"
        good = json.dumps({"event": "run_start"})
        rows = [line, good] if position == "first" else [good, line]
        path.write_text("\n".join(rows) + "\n")
        lineno = 1 if position == "first" else 2
        match = f"journal line {lineno} is not a JSON object"
        with pytest.raises(SerializationError, match=match):
            read_journal(path)

    @pytest.mark.parametrize("record", [
        {"event": "job_success", "job": ["x"]},
        {"event": "job_start", "job": 7},
        {"event": ["job_start"], "job": "a"},
    ])
    def test_mistyped_key_field_raises(self, tmp_path, record):
        path = tmp_path / "journal.jsonl"
        good = json.dumps({"event": "run_start"})
        path.write_text(f"{good}\n{json.dumps(record)}\n")
        field = "event" if not isinstance(record["event"], str) else "job"
        match = f"journal line 2 has a non-string '{field}' field"
        with pytest.raises(SerializationError, match=match):
            read_journal(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = json.dumps({"event": "run_start"})
        path.write_text(f"{good}\n\n{good}\n")
        assert len(read_journal(path)) == 2
