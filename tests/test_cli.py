import csv
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from treeshort import engine
from treeshort.cli import main
from treeshort.graph import bfs_tree, dumps_graph, dumps_partition, loads_graph, loads_partition

from conftest import build_fan


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def caterpillar_files(tmp_path):
    # center must be node 0: the CLI roots its BFS tree there
    graph = write(tmp_path / "cat.txt", "6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    parts = write(tmp_path / "cat-parts.txt", "1\n2\n3\n4\n")
    return graph, parts


class TestGen:
    def test_lowerbound_files_and_meta(self, tmp_path):
        assert main(["gen", "lowerbound", "6", "16", "--out", str(tmp_path)]) == 0
        g = loads_graph((tmp_path / "graph.txt").read_text())
        assert g.n == 632
        p = loads_partition((tmp_path / "parts.txt").read_text(), g.n)
        assert p.k == 25
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["quality_floor"] == "8/1"
        assert meta["n"] == 632

    def test_grid_edge_count(self, tmp_path):
        assert main(["gen", "grid", "5", "5", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert (meta["n"], meta["m"]) == (25, 40)

    def test_wheel(self, tmp_path):
        assert main(["gen", "wheel", "10", "--out", str(tmp_path)]) == 0
        assert loads_graph((tmp_path / "graph.txt").read_text()).n == 10

    def test_ktree_requires_seed(self, tmp_path, capsys):
        assert main(["gen", "ktree", "20", "2", "--out", str(tmp_path)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_bad_params_usage_error(self, tmp_path):
        assert main(["gen", "grid", "5", "--out", str(tmp_path)]) == 1
        assert main(["gen", "nosuch", "5"]) == 1


class TestShortcut:
    def test_caterpillar_congestion_one(self, caterpillar_files, tmp_path, capsys):
        graph, parts = caterpillar_files
        out = tmp_path / "sc"
        assert main(["shortcut", graph, parts, "--seed", "1", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert "congestion=1" in line
        assert "blocks=1" in line
        assert (out / "shortcut.txt").exists()
        assert json.loads((out / "certificates.json").read_text()) == []

    def test_single_part_delta_one(self, tmp_path, capsys):
        graph = write(tmp_path / "p.txt", "4 3\n0 1\n1 2\n2 3\n")
        parts = write(tmp_path / "pp.txt", "0 1 2 3\n")
        assert main(["shortcut", graph, parts, "--seed", "1"]) == 0
        assert "delta_final=1" in capsys.readouterr().out

    def test_grid_delta_small(self, tmp_path, capsys):
        assert main(["gen", "grid", "8", "8", "--out", str(tmp_path), "--parts", "6", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main([
            "shortcut", str(tmp_path / "graph.txt"), str(tmp_path / "parts.txt"), "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        delta = int(out.split("delta_final=")[1].split()[0])
        assert delta <= 4

    def test_invalid_partition_is_validation_error(self, tmp_path, capsys):
        graph = write(tmp_path / "p.txt", "3 2\n0 1\n1 2\n")
        parts = write(tmp_path / "bad.txt", "0 2\n")
        assert main(["shortcut", graph, parts, "--seed", "1"]) == 2


class TestAuditCommand:
    def test_roundtrip_matches_construction(self, caterpillar_files, tmp_path, capsys):
        graph, parts = caterpillar_files
        out = tmp_path / "sc"
        main(["shortcut", graph, parts, "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["audit", graph, parts, str(out / "shortcut.txt")]) == 0
        report = json.loads(capsys.readouterr().out)
        written = json.loads((out / "audit.json").read_text())
        for key in ("congestion", "dilation", "blocks", "quality", "per_part"):
            assert report[key] == written[key]

    @pytest.mark.parametrize("eid", ["99999", "-1"])
    def test_unknown_edge_id_named(self, caterpillar_files, tmp_path, capsys, eid):
        graph, parts = caterpillar_files
        shortcut = write(tmp_path / "sc.txt", f"0 : {eid}\n1 :\n2 :\n3 :\n")
        assert main(["audit", graph, parts, shortcut]) == 2
        assert f"unknown edge id {eid}" in capsys.readouterr().err

    def test_repeated_part_index_rejected(self, caterpillar_files, tmp_path, capsys):
        graph, parts = caterpillar_files
        shortcut = write(tmp_path / "sc.txt", "0 : 0\n1 :\n2 :\n3 :\n0 :\n")
        assert main(["audit", graph, parts, shortcut]) == 2
        assert "repeats part index 0" in capsys.readouterr().err

    def test_csv_schema_line(self, caterpillar_files, tmp_path, capsys):
        graph, parts = caterpillar_files
        out = tmp_path / "sc"
        main(["shortcut", graph, parts, "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["audit", graph, parts, str(out / "shortcut.txt"), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema=2"
        assert lines[1].startswith("instance,k,D,")

    def test_csv_quotes_an_instance_path_with_a_comma(self, tmp_path, capsys):
        folder = tmp_path / "a,b"
        folder.mkdir()
        graph = write(folder / "graph.txt", "6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
        parts = write(folder / "parts.txt", "1\n2\n3\n4\n")
        shortcut = write(folder / "sc.txt", "0 : 0\n1 :\n2 :\n3 :\n")
        assert main(["audit", graph, parts, shortcut, "--format", "csv"]) == 0
        header, row = list(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        assert len(row) == len(header) == 7
        assert row[0] == graph


class TestLoaderErrors:
    """A token that is not an integer names the file kind and its 1-based
    line (blank lines count) and exits 2."""

    def test_graph_file(self, caterpillar_files, tmp_path, capsys):
        _, parts = caterpillar_files
        graph = write(tmp_path / "g.txt", "6 5\n0 1\n\n0 2\n0 x3\n0 4\n0 5\n")
        assert main(["shortcut", graph, parts, "--seed", "1"]) == 2
        assert "graph file line 5: 'x3' is not an integer" in capsys.readouterr().err

    def test_graph_header(self, caterpillar_files, tmp_path, capsys):
        _, parts = caterpillar_files
        graph = write(tmp_path / "g.txt", "\nsix 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
        assert main(["shortcut", graph, parts, "--seed", "1"]) == 2
        assert "graph file line 2: 'six' is not an integer" in capsys.readouterr().err

    def test_partition_file(self, caterpillar_files, tmp_path, capsys):
        graph, _ = caterpillar_files
        parts = write(tmp_path / "p.txt", "1\n2\n3 y\n4\n")
        assert main(["shortcut", graph, parts, "--seed", "1"]) == 2
        assert "partition file line 3: 'y' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 : 0\n1 :\n2 :\nx : 0\n", "shortcut file line 4: 'x' is not an integer"),
            ("0 : 0\n\n1 : 1 z\n2 :\n3 :\n", "shortcut file line 3: 'z' is not an integer"),
            ("0 : 0\n: 1\n", "shortcut file line 2: expected 'part : edge ids'"),
        ],
        ids=["index", "edge-id", "no-index"],
    )
    def test_shortcut_file(self, caterpillar_files, tmp_path, capsys, text, message):
        graph, parts = caterpillar_files
        shortcut = write(tmp_path / "sc.txt", text)
        assert main(["audit", graph, parts, shortcut]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["shortcut", "{missing}", "{parts}", "--seed", "1"],
            ["audit", "{graph}", "{missing}", "{shortcut}"],
            ["mst", "{missing}", "--seed", "1"],
            ["aggregate", "{graph}", "{parts}", "--seed", "1", "--shortcut", "{missing}"],
            ["bench", "{missing}"],
        ],
        ids=["graph", "partition", "mst-graph", "shortcut", "bench-spec"],
    )
    def test_missing_file(self, caterpillar_files, tmp_path, capsys, argv):
        graph, parts = caterpillar_files
        shortcut = write(tmp_path / "sc.txt", "0 : 0\n1 :\n2 :\n3 :\n")
        missing = str(tmp_path / "missing.txt")
        names = dict(graph=graph, parts=parts, shortcut=shortcut, missing=missing)
        assert main([a.format(**names) for a in argv]) == 2
        assert f"No such file or directory: '{missing}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty graph file"), ("4 1\n0 9\n", "edge (0, 9) out of range for n=4")],
        ids=["empty", "edge-out-of-range"],
    )
    def test_bad_graph(self, caterpillar_files, tmp_path, capsys, text, message):
        _, parts = caterpillar_files
        graph = write(tmp_path / "g.txt", text)
        assert main(["shortcut", graph, parts, "--seed", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_parts_for_a_family_with_its_own(self, tmp_path, capsys):
        argv = ["gen", "lowerbound", "6", "16", "--parts", "3", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "lowerbound carries its own parts" in capsys.readouterr().err


class TestAggregate:
    def test_sum_with_trace(self, tmp_path):
        main(["gen", "grid", "5", "5", "--out", str(tmp_path), "--parts", "3", "--seed", "4"])
        out = tmp_path / "agg.json"
        trace = tmp_path / "trace.csv"
        code = main([
            "aggregate", str(tmp_path / "graph.txt"), str(tmp_path / "parts.txt"),
            "--op", "sum", "--seed", "5", "--out", str(out), "--trace-csv", str(trace),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        parts = loads_partition((tmp_path / "parts.txt").read_text(), 25)
        for i in range(parts.k):
            assert payload["per_part"][str(i)] == sum(parts.parts[i])
        assert trace.read_text().splitlines()[0] == "round,src,dst,bits,tag"


class TestAggregateShortcutFile:
    """`aggregate --shortcut` rejects the files that `audit` rejects."""

    @pytest.fixture
    def grid_files(self, tmp_path, capsys):
        main(["gen", "grid", "8", "8", "--out", str(tmp_path), "--parts", "10", "--seed", "3"])
        capsys.readouterr()
        return str(tmp_path / "graph.txt"), str(tmp_path / "parts.txt")

    def aggregate(self, grid_files, tmp_path, rows):
        shortcut = write(tmp_path / "sc.txt", "".join(f"{i} : {r}\n" for i, r in enumerate(rows)))
        return main(["aggregate", *grid_files, "--seed", "1", "--shortcut", shortcut])

    def test_short_shortcut_rejected(self, grid_files, tmp_path, capsys):
        assert self.aggregate(grid_files, tmp_path, [""]) == 2
        assert "shortcut covers 1 parts, partition has 10" in capsys.readouterr().err

    def test_unknown_edge_id_rejected(self, grid_files, tmp_path, capsys):
        assert self.aggregate(grid_files, tmp_path, ["99999"] + [""] * 9) == 2
        assert "unknown edge id 99999" in capsys.readouterr().err

    def test_non_tree_edge_rejected(self, grid_files, tmp_path, capsys):
        g = loads_graph(Path(grid_files[0]).read_text())
        non_tree = min(set(range(g.m)) - bfs_tree(g, 0).tree_edges)
        assert self.aggregate(grid_files, tmp_path, [str(non_tree)] + [""] * 9) == 2
        assert "non-tree edges" in capsys.readouterr().err

    def test_valid_file_accepted(self, grid_files, tmp_path):
        assert self.aggregate(grid_files, tmp_path, [""] * 10) == 0


class TestMst:
    def test_tree_single_phase(self, tmp_path, capsys):
        graph = write(tmp_path / "t.txt", "4 3 weighted\n0 1 5\n0 2 2\n0 3 9\n")
        out = tmp_path / "mst.json"
        assert main(["mst", graph, "--seed", "1", "--out", str(out)]) == 0
        assert "phases=1" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["tree_edges"] == [0, 1, 2]
        assert data["total_weight"] == 16

    def test_duplicate_weights_validation_error(self, tmp_path):
        graph = write(tmp_path / "t.txt", "3 2 weighted\n0 1 5\n1 2 5\n")
        assert main(["mst", graph, "--seed", "1"]) == 2


class TestBench:
    SPEC = {
        "runs": [
            {"family": "grid", "params": [5, 5], "parts": 4, "seed": 1},
            {"family": "lowerbound", "params": [5, 12], "seed": 1},
        ]
    }

    def test_two_rows_and_reruns_byte_identical(self, tmp_path):
        spec = write(tmp_path / "spec.json", json.dumps(self.SPEC))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", spec, "--out", str(out1)]) == 0
        assert main(["bench", spec, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert len(lines) == 4  # schema + header + 2 rows

    def test_lowerbound_quality_at_least_floor(self, tmp_path):
        spec = write(
            tmp_path / "spec.json",
            json.dumps({"runs": [
                {"family": "lowerbound", "params": [6, 16], "seed": 1},
                {"family": "lowerbound", "params": [6, 20], "seed": 1},
            ]}),
        )
        out = tmp_path / "r.csv"
        assert main(["bench", spec, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()[1:]
        cols = header.split(",")
        for row in rows:
            vals = dict(zip(cols, row.split(",")))
            assert vals["status"] == "ok"
            assert float(vals["quality"]) >= float(vals["quality_floor"])

    def test_failed_run_reported_and_nonzero_exit(self, tmp_path, monkeypatch):
        # no valid run is known to fail at run time, so the second run is made to
        # fail; the first still runs the real pipeline
        construct_full, calls = engine.construct_full, []

        def fail_second_run(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise engine.EngineError("forced failure")
            return construct_full(*args, **kwargs)

        monkeypatch.setattr(engine, "construct_full", fail_second_run)
        spec = write(
            tmp_path / "spec.json",
            json.dumps({"runs": [
                {"family": "grid", "params": [3, 3], "parts": 2, "seed": 1},
                {"family": "wheel", "params": [6], "parts": 2, "seed": 1},
            ]}),
        )
        out = tmp_path / "r.csv"
        assert main(["bench", spec, "--out", str(out)]) == 3
        rows = out.read_text().splitlines()[2:]
        assert rows[0].endswith("ok")
        assert "error:" in rows[1]

    def test_malformed_spec_validation_error(self, tmp_path):
        spec = write(tmp_path / "spec.json", "{}")
        assert main(["bench", spec]) == 2

    @pytest.mark.parametrize(
        "runs, message",
        [
            ([1], "bench run 0: expected an object"),
            ([{"params": [3, 3], "parts": 2, "seed": 1}], "bench run 0: unknown family None"),
            (
                [
                    {"family": "lowerbound", "params": [6, 16], "seed": 1},
                    {"family": "grid", "params": [4], "parts": 2, "seed": 1},
                ],
                "bench run 1: grid needs 'params' as 2 integers",
            ),
            ([{"family": "grid", "params": [3, 3], "seed": 1}], "bench run 0: grid needs 'parts'"),
            ([{"family": "wheel", "params": [6], "parts": 2}], "bench run 0: 'seed' must be"),
            (
                [{"family": "grid", "params": [3, 3], "seed": 1, "parts": 0}],
                "bench run 0: part count must be in [1, 9], got 0",
            ),
            (
                [{"family": "grid", "params": [3, 3], "seed": 1, "parts": 10}],
                "bench run 0: part count must be in [1, 9], got 10",
            ),
            (
                [
                    {"family": "wheel", "params": [6], "seed": 1, "parts": 6},
                    {"family": "ktree", "params": [20, 2], "seed": 1, "parts": 21},
                ],
                "bench run 1: part count must be in [1, 20], got 21",
            ),
            (
                [{"family": "wheel", "params": [3], "seed": 1, "parts": 1}],
                "bench run 0: wheel needs at least 4 nodes, got 3",
            ),
            (
                [
                    {"family": "wheel", "params": [4], "seed": 1, "parts": 1},
                    {"family": "ktree", "params": [3, 3], "seed": 1, "parts": 3},
                ],
                "bench run 1: ktree needs k >= 1 and n >= k+1, got n=3, k=3",
            ),
            (
                [{"family": "ktree", "params": [5, 0], "seed": 1, "parts": 2}],
                "bench run 0: ktree needs k >= 1 and n >= k+1, got n=5, k=0",
            ),
            (
                [{"family": "grid", "params": [-2, -3], "seed": 1, "parts": 6}],
                "bench run 0: grid dimensions must be positive, got [-2, -3]",
            ),
            (
                [{"family": "grid", "params": [4, 0], "seed": 1, "parts": 1}],
                "bench run 0: grid dimensions must be positive, got [4, 0]",
            ),
            (
                [{"family": "lowerbound", "params": [4, 12], "seed": 1}],
                "bench run 0: need 5 <= delta' <= D'/2, got delta'=4, D'=12",
            ),
            (
                [
                    {"family": "grid", "params": [3, 3], "seed": 1, "parts": 2},
                    {"family": "lowerbound", "params": [5, 12], "parts": 7, "seed": 1},
                ],
                "bench run 1: lowerbound carries its own parts",
            ),
            ([{"family": ["grid"], "params": [3, 3], "seed": 1}], "bench run 0: unknown family"),
            (
                [{"family": "wheel", "params": [6], "parts": 2, "seed": 1, "name": 6}],
                "bench run 0: 'name' must be a string",
            ),
            (
                [{"family": "wheel", "params": [6], "parts": 2, "seed": 1, "name": "a,b"}],
                "bench run 0: 'name' must be a string without commas",
            ),
            (
                [{"family": "wheel", "params": [6], "seed": 1, "parts": 7}],
                "bench run 0: part count must be in [1, 6], got 7",
            ),
            # only null and "" mean unnamed; other falsy values are not names
            *(
                (
                    [{"family": "wheel", "params": [6], "parts": 2, "seed": 1, "name": bad}],
                    "bench run 0: 'name' must be a string",
                )
                for bad in (0, False, [], {})
            ),
        ],
    )
    def test_bad_run_rejected_before_any_run(self, tmp_path, capsys, runs, message):
        spec = write(tmp_path / "spec.json", json.dumps({"runs": runs}))
        out = tmp_path / "r.csv"
        assert main(["bench", spec, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCaps:
    """A cap that can never be met is a usage error, not a runtime failure."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        main(["gen", "grid", "5", "5", "--out", str(tmp_path), "--parts", "3", "--seed", "4"])
        main(["gen", "ktree", "30", "2", "--out", str(tmp_path / "w"), "--seed", "4", "--weights"])
        capsys.readouterr()
        spec = write(tmp_path / "spec.json", json.dumps(
            {"runs": [{"family": "grid", "params": [4, 4], "parts": 2, "seed": 1}]}
        ))
        return {
            "graph": str(tmp_path / "graph.txt"),
            "parts": str(tmp_path / "parts.txt"),
            "weighted": str(tmp_path / "w" / "graph.txt"),
            "spec": spec,
        }

    @pytest.mark.parametrize(
        "command, flag, value, low",
        [
            ("shortcut", "--max-delta", "-1", 1),
            ("shortcut", "--max-delta", "0", 1),
            ("aggregate", "--max-delta", "0", 1),
            ("aggregate", "--max-rounds", "-3", 0),
            ("mst", "--max-delta", "0", 1),
            ("mst", "--max-rounds", "-1", 0),
            ("bench", "--max-delta", "-2", 1),
        ],
    )
    def test_unmeetable_cap_is_usage_error(self, files, capsys, command, flag, value, low):
        inputs = {
            "shortcut": [files["graph"], files["parts"], "--seed", "1"],
            "aggregate": [files["graph"], files["parts"], "--seed", "1"],
            "mst": [files["weighted"], "--seed", "1"],
            "bench": [files["spec"]],
        }[command]
        assert main([command, *inputs, flag, value]) == 1
        assert capsys.readouterr().err == (
            f"usage error: argument {flag}: must be at least {low}, got {value}\n"
        )

    def test_zero_rounds_stays_legal(self, files, capsys):
        args = ["aggregate", files["graph"], files["parts"], "--seed", "1", "--max-rounds", "0"]
        assert main(args) == 3
        assert capsys.readouterr().err == "runtime error: exceeded max_rounds=0\n"

    def test_non_integer_cap_keeps_argparse_wording(self, files, capsys):
        args = ["shortcut", files["graph"], files["parts"], "--seed", "1", "--max-delta", "x"]
        assert main(args) == 1
        assert "argument --max-delta: invalid int value: 'x'" in capsys.readouterr().err


class TestGoldenSession:
    """One CLI session pinned by hash: every argv, exit code, stdout and
    stderr, then every file written, in sorted relative-path order.  Paths are
    relative because `gen` and the audit CSV print them."""

    SPEC = {
        "runs": [
            {"family": "grid", "params": [5, 5], "parts": 4, "seed": 1},
            {"family": "lowerbound", "params": [5, 12], "seed": 3},
        ]
    }
    SESSION = [
        "gen grid 6 6 --out grid --parts 4 --seed 5",
        "gen wheel 12 --out wheel --parts 3 --seed 2",
        "gen ktree 40 2 --out ktree --parts 5 --seed 4 --weights",
        "gen lowerbound 5 12 --out lb",
        "shortcut grid/graph.txt grid/parts.txt --seed 6 --out sc",
        "shortcut fan-graph.txt fan-parts.txt --seed 1 --out fansc",
        "audit grid/graph.txt grid/parts.txt sc/shortcut.txt",
        "audit grid/graph.txt grid/parts.txt sc/shortcut.txt --format csv --out audit.csv",
        "aggregate wheel/graph.txt wheel/parts.txt --op sum --seed 7 --out agg.json"
        " --trace-csv trace.csv",
        "aggregate grid/graph.txt grid/parts.txt --op max --seed 8 --shortcut sc/shortcut.txt",
        "mst ktree/graph.txt --seed 9 --out mst.json",
        "bench spec.json",
        "shortcut missing.txt grid/parts.txt --seed 1",
        "mst grid/graph.txt --seed 1",
        "gen lowerbound 6 16 --parts 3 --out lb2",
    ]

    def test_session_hash(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "spec.json", json.dumps(self.SPEC))
        fan, fan_parts = build_fan(9, 18, 9)  # case II: writes certificates
        write(tmp_path / "fan-graph.txt", dumps_graph(fan))
        write(tmp_path / "fan-parts.txt", dumps_partition(fan_parts))
        digest = hashlib.sha256()
        for line in self.SESSION:
            code = main(shlex.split(line))
            captured = capsys.readouterr()
            for chunk in (line, str(code), captured.out, captured.err):
                digest.update(chunk.encode() + b"\0")
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
        assert digest.hexdigest() == (
            "164c7bab3938841009fac6f8a7ec0ba8cbab96b16d7b4e875cc956e6b2e67f80"
        )


@pytest.mark.parametrize(
    "gen_args, run",
    [
        (["grid", "4", "0"], {"family": "grid", "params": [4, 0], "parts": 1}),
        (["wheel", "3"], {"family": "wheel", "params": [3], "parts": 1}),
        (["ktree", "3", "3"], {"family": "ktree", "params": [3, 3], "parts": 1}),
        (["lowerbound", "4", "12"], {"family": "lowerbound", "params": [4, 12]}),
    ],
    ids=["grid", "wheel", "ktree", "lowerbound"],
)
def test_gen_and_bench_reject_bad_params_alike(tmp_path, capsys, gen_args, run):
    assert main(["gen", *gen_args, "--seed", "1", "--out", str(tmp_path / "g")]) == 2
    gen_err = capsys.readouterr().err
    assert gen_err.startswith("validation error: ")
    spec = write(tmp_path / "spec.json", json.dumps({"runs": [dict(run, seed=1)]}))
    assert main(["bench", spec]) == 2
    bench_err = capsys.readouterr().err
    assert bench_err == gen_err.replace("validation error: ", "validation error: bench run 0: ")


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    """The `treeshort gen` lines and the bench spec in README's "Command line"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    gen_lines = [
        line.split("#")[0] for line in section.splitlines() if line.startswith("treeshort gen ")
    ]
    (spec,) = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(gen_lines) == 3
    monkeypatch.chdir(tmp_path)
    for line in gen_lines:
        assert main(shlex.split(line)[1:]) == 0
    assert main(["bench", write(tmp_path / "spec.json", spec), "--out", "r.csv"]) == 0


def test_readme_library_use_runs(capsys):
    """README's "Library use" snippet runs and prints four integers."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(code, {})
    assert re.fullmatch(r"\d+ \d+ \d+ \d+\n", capsys.readouterr().out)
