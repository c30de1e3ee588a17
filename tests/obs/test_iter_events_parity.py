"""Trace-line parsing: the fast decoder keeps every error and message.

The reference is ``iter_events`` as it was before lines were decoded with
a shared ``JSONDecoder().raw_decode`` (copied verbatim); the current
reader must yield the same events and raise the same exception type with
the same message on every malformed input.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.spans import iter_events, iter_events_in_order


def _ref_iter_events(path):
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                if not raw.endswith("\n"):
                    raise ValueError(
                        f"{path}:{lineno}: truncated trace record (partial "
                        f"write?): {line[:60]!r}"
                    ) from exc
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            yield event


def _outcome(reader, path):
    events = []
    try:
        for ev in reader(path):
            events.append(ev)
    except Exception as exc:  # the exception is part of the outcome
        return events, type(exc), str(exc), type(exc.__cause__)
    return events, None, None, None


_GOOD = '{"t":0.0,"seq":0,"layer":"net","event":"a"}'
_CASES = {
    "well_formed": _GOOD + "\n" + '{"seq":1,"x":[1,2.5,"\\u00e4"]}\n',
    "truncated_final_line": _GOOD + '\n{"t": 1.0, "seq": 1, "la',
    "invalid_middle_line": _GOOD + '\n{"seq": broken}\n' + _GOOD + "\n",
    "trailing_garbage": _GOOD + '\n{"seq": 1} {"seq": 2}\n',
    "trailing_garbage_final_line": _GOOD + '\n{"seq": 1}x',
    "utf8_bom": "\ufeff" + _GOOD + "\n",
    "non_object_line": _GOOD + "\n[1]\n",
    "bare_scalar_line": "3\n",
    "blank_lines": "\n   \n" + _GOOD + "\n\n\t\n" + _GOOD + "\n",
    "nan_and_infinity": '{"a":NaN,"b":-Infinity}\n',
    "no_trailing_newline": _GOOD,
    "empty_file": "",
}


@pytest.mark.parametrize("reader", [iter_events, iter_events_in_order])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_reader_matches_reference(case, reader, tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(_CASES[case].encode("utf-8"))
    assert _outcome(reader, path) == _outcome(_ref_iter_events, path)


def test_expected_diagnoses(tmp_path):
    # Spot-check that the shared cases do reach each diagnosis.
    def error(case):
        path = tmp_path / f"{case}.jsonl"
        path.write_bytes(_CASES[case].encode("utf-8"))
        return _outcome(iter_events, path)[2]

    assert "truncated_final_line.jsonl:2: truncated trace record" in (
        error("truncated_final_line")
    )
    assert ":2: not valid JSON: Expecting value" in error(
        "invalid_middle_line"
    )
    assert ":2: not valid JSON: Extra data" in error("trailing_garbage")
    assert "Unexpected UTF-8 BOM" in error("utf8_bom")
    assert error("non_object_line").endswith(
        ":2: expected a JSON object"
    )
    assert error("blank_lines") is None


def test_seq_regression_names_the_line_and_both_keys(tmp_path):
    path = tmp_path / "t.jsonl"
    lines = [json.dumps({"seq": s}) for s in (0, 1, 3, 2, 4)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [ev["seq"] for ev in iter_events(path)] == [0, 1, 3, 2, 4]
    seen = []
    with pytest.raises(ValueError, match=r"t\.jsonl:4: seq 2 follows seq 3"):
        for ev in iter_events_in_order(path):
            seen.append(ev["seq"])
    assert seen == [0, 1, 3]


def test_equal_and_missing_seq_keys_are_in_order(tmp_path):
    path = Path(tmp_path) / "t.jsonl"
    path.write_text('{}\n{"seq": 0}\n{"seq": 5}\n{"seq": 5}\n', encoding="utf-8")
    assert len(list(iter_events_in_order(path))) == 4
