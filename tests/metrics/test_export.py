"""Tests for result export."""

import csv

import pytest

from repro.core import CloudFogSystem, cloudfog_basic
from repro.metrics.export import export_sessions_csv


@pytest.fixture(scope="module")
def result():
    return CloudFogSystem(cloudfog_basic(num_players=80, num_supernodes=6,
                                         seed=1)).run(days=2)


def test_sessions_csv_round_trip(tmp_path, result):
    path = tmp_path / "sessions.csv"
    count = export_sessions_csv(result, path)
    assert count == len(result.sessions)
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == count
    first = rows[0]
    assert set(first) == {"day", "player", "game", "kind", "target",
                          "response_latency_ms", "server_latency_ms",
                          "continuity", "satisfied", "join_latency_ms"}
    assert 0.0 <= float(first["continuity"]) <= 1.0


def test_sessions_csv_equals_rows_written_from_the_records(tmp_path,
                                                           result):
    """The column-wise export writes the bytes a DictWriter over the
    log's ``SessionRecord`` rows writes (None joins as empty cells)."""
    fields = ("day", "player", "game", "kind", "target",
              "response_latency_ms", "server_latency_ms", "continuity",
              "satisfied", "join_latency_ms")
    reference = tmp_path / "reference.csv"
    with reference.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for record in result.sessions:
            row = {name: getattr(record, name) for name in fields}
            row["kind"] = record.kind.value
            writer.writerow(row)
    path = tmp_path / "sessions.csv"
    export_sessions_csv(result, path)
    assert any(r.join_latency_ms is None for r in result.sessions)
    assert any(r.join_latency_ms is not None for r in result.sessions)
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("export", [export_sessions_csv])
def test_overwrite_false_refuses_existing_file(tmp_path, result, export):
    path = tmp_path / "out.dat"
    export(result, path)
    original = path.read_text()
    with pytest.raises(FileExistsError):
        export(result, path, overwrite=False)
    assert path.read_text() == original  # untouched


@pytest.mark.parametrize("export", [export_sessions_csv])
def test_overwrite_default_replaces_and_fresh_path_ok(tmp_path, result,
                                                      export):
    path = tmp_path / "out.dat"
    # overwrite=False on a fresh path writes normally
    count = export(result, path, overwrite=False)
    assert count > 0
    # the default replaces silently (historical behaviour)
    assert export(result, path) == count


def test_summary_table_renders(result):
    table = result.summary_table()
    text = table.render()
    assert "satisfied ratio" in text
    assert "cloud bandwidth" in text
    metrics = dict(zip(table.column("metric"), table.column("value")))
    assert metrics["mean continuity"] == pytest.approx(
        result.mean_continuity)
