import os
import xml.etree.ElementTree as ET
from concurrent.futures import Future
from statistics import fmean, pstdev

import pytest

from regraph import (
    ExperimentConfig,
    derive_seed,
    parse_config,
    run_experiment,
)
from regraph.cli import main
from regraph.seeding import splitmix64

CONFIG_TEXT = """
# tiny smoke sweep
kind = congestion_scaling
d = 3
n_values = 10, 16
replications = 2
seed = 99
output_dir = {out}
"""


def _strip_volatile(text: str) -> str:
    """Drop the timestamp header and the wall-clock runtime column."""
    kept = []
    for line in text.splitlines():
        if line.startswith("# generated="):
            continue
        cells = line.split(",")
        if not line.startswith("#") and len(cells) > 3 and cells[1] != "" and cells[0] != "n":
            line = ",".join(cells[:-1])
        kept.append(line)
    return "\n".join(kept)


def test_splitmix64_known_vector():
    # reference values of the splitmix64 sequence seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(99, 10, 0) == derive_seed(99, 10, 0)
    assert derive_seed(99, 10, 0) != derive_seed(99, 10, 1)
    assert derive_seed(99, 10, 1) != derive_seed(99, 16, 0)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(CONFIG_TEXT.format(out=tmp_path))
    assert cfg.kind == "congestion_scaling"
    assert cfg.d == 3
    assert cfg.n_values == [10, 16]
    assert cfg.replications == 2
    assert cfg.seed == 99
    assert cfg.delta_mode == "auto"


def test_parse_config_errors():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("kind = cycle_stats\nd = 3\nn_values = 10\nseed = 1\nbogus = 2")
    with pytest.raises(ValueError, match="missing required"):
        parse_config("kind = cycle_stats\nd = 3\nn_values = 10")
    with pytest.raises(ValueError, match="bad value"):
        parse_config("kind = cycle_stats\nd = x\nn_values = 10\nseed = 1")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("kind cycle_stats")


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("kind = cycle_stats\nd = 3\nd = 4\nn_values = 10\nseed = 1", 3, "d"),
        ("kind = cycle_stats\nseed = 1\nd = 3\nn_values = 10\n\n# again\nseed = 2", 7, "seed"),
        ("kind = cycle_stats\nd = 3\nn_values = 10\nn_values = 12\nseed = 1", 4, "n_values"),
    ],
)
def test_parse_config_rejects_repeated_key(tmp_path, capsys, text, line, key):
    with pytest.raises(ValueError, match=f"config line {line}: key '{key}' is given more than once"):
        parse_config(text)
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(text + f"\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["experiment", "--config", str(cfg_file)]) == 1
    assert f"key '{key}' is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig("bogus", 3, [10], seed=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig("cycle_stats", 3, [10, 10], seed=1)
    with pytest.raises(ValueError, match="replications"):
        ExperimentConfig("cycle_stats", 3, [10], seed=1, replications=0)
    with pytest.raises(ValueError, match="delta_mode"):
        ExperimentConfig("delta_scaling", 3, [10], seed=1, delta_mode="no")


def test_run_experiment_row_accounting(tmp_path):
    cfg = ExperimentConfig(
        "congestion_scaling", 3, [10, 16], seed=99, replications=2, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    assert len(result.rows) == 4
    assert set(result.aggregates) == {10, 16}
    text = result.csv_path.read_text()
    lines = text.strip().split("\n")
    data = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("n,")]
    assert len(data) == 6  # 4 replicate rows + 2 aggregate rows
    header = [ln for ln in lines if ln.startswith("n,")][0]
    assert header == "n,replicate,seed,M,diameter,runtime_ms"
    agg = [ln for ln in data if ',"mean",' in ln]
    assert len(agg) == 2


def test_run_experiment_aggregates_recomputable_from_csv(tmp_path):
    cfg = ExperimentConfig(
        "congestion_scaling", 3, [12], seed=5, replications=3, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    values, agg = [], None
    for line in result.csv_path.read_text().splitlines():
        if line.startswith("#") or line.startswith("n,"):
            continue
        cells = line.split(",")
        if cells[3] == '"mean"':
            agg = (float(cells[4]), float(cells[5]))
        else:
            values.append(float(cells[3]))
    assert len(values) == 3
    assert agg == (pytest.approx(fmean(values)), pytest.approx(pstdev(values)))
    assert result.aggregates[12] == (pytest.approx(fmean(values)), pytest.approx(pstdev(values)))


def test_run_experiment_rows_reproducible_from_seed(tmp_path):
    cfg = ExperimentConfig(
        "congestion_scaling", 3, [12], seed=5, replications=2, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    from regraph import GenSpec, random_regular, vertex_congestion
    from regraph.experiments import RUNNER_MAX_RETRIES

    for row in result.rows:
        g = random_regular(GenSpec(row["n"], 3, seed=row["seed"], max_retries=RUNNER_MAX_RETRIES))
        assert vertex_congestion(g).max_flow == row["M"]


def test_run_experiment_parity_adjustment(tmp_path):
    cfg = ExperimentConfig(
        "congestion_scaling", 3, [9, 16], seed=1, replications=1, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    assert result.adjustments == [(9, 10)]
    assert sorted(result.aggregates) == [10, 16]


def test_run_experiment_adjustment_collision(tmp_path):
    cfg = ExperimentConfig(
        "congestion_scaling", 3, [9, 10], seed=1, replications=1, output_dir=str(tmp_path)
    )
    with pytest.raises(ValueError, match="collide"):
        run_experiment(cfg, workers=1)


def test_run_experiment_deterministic_csv(tmp_path):
    texts = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            "congestion_scaling",
            3,
            [10, 16],
            seed=99,
            replications=2,
            output_dir=str(tmp_path / sub),
        )
        result = run_experiment(cfg, workers=2)
        texts.append(result.csv_path.read_text())
    assert _strip_volatile(texts[0]) == _strip_volatile(texts[1])


def test_run_experiment_delta_exact_rows(tmp_path):
    cfg = ExperimentConfig(
        "delta_scaling", 3, [12], seed=3, replications=2, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    for row in result.rows:
        assert row["mode"] == "exact"
        assert row["delta"] >= 0.0


def test_run_experiment_delta_sampled_rows(tmp_path):
    cfg = ExperimentConfig(
        "delta_scaling",
        3,
        [24],
        seed=3,
        replications=1,
        delta_mode="sampled",
        samples=500,
        output_dir=str(tmp_path),
    )
    result = run_experiment(cfg, workers=1)
    row = result.rows[0]
    assert row["mode"] == "sampled+witness"
    assert row["samples_used"] == 500
    assert row["delta"] >= 0.0


def test_run_experiment_diameter_offsets(tmp_path):
    cfg = ExperimentConfig(
        "diameter_scaling", 3, [32, 64], seed=17, replications=2, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    assert result.c_hat is not None
    assert result.c_hat == pytest.approx(max(r["offset"] for r in result.rows))


def test_run_experiment_cycle_stats(tmp_path):
    cfg = ExperimentConfig(
        "cycle_stats", 3, [32], seed=2, replications=2, samples=20, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    for row in result.rows:
        assert 0.0 <= row["found_fraction"] <= 1.0


def test_worker_count_env_override(tmp_path, monkeypatch):
    from regraph.experiments import _resolve_workers

    monkeypatch.setenv("REGRAPH_THREADS", "1")
    assert _resolve_workers(None) == 1
    monkeypatch.setenv("REGRAPH_THREADS", "7")
    assert _resolve_workers(None) == 7
    assert _resolve_workers(3) == 3  # explicit argument wins
    monkeypatch.delenv("REGRAPH_THREADS")
    assert _resolve_workers(None) >= 1
    # a run under the env override still produces the same data
    monkeypatch.setenv("REGRAPH_THREADS", "1")
    cfg = ExperimentConfig(
        "congestion_scaling", 3, [10], seed=99, replications=1, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg)
    assert len(result.rows) == 1


@pytest.mark.parametrize("env", ["0", "-4", "abc", "2.5", " "])
def test_bad_worker_env_fails_loudly(tmp_path, monkeypatch, capsys, env):
    import regraph.experiments as experiments

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool must not start")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("REGRAPH_THREADS", env)
    with pytest.raises(ValueError, match="REGRAPH_THREADS"):
        experiments._resolve_workers(None)
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
    assert main(["experiment", "--config", str(cfg_file)]) == 1
    assert "REGRAPH_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -4])
def test_bad_worker_argument_fails_loudly(tmp_path, monkeypatch, capsys, workers):
    import regraph.experiments as experiments

    monkeypatch.setenv("REGRAPH_THREADS", "2")  # the argument is checked, not the env
    with pytest.raises(ValueError, match="workers must be at least 1"):
        experiments._resolve_workers(workers)
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
    assert main(["experiment", "--config", str(cfg_file), "--workers", str(workers)]) == 1
    assert "workers must be at least 1" in capsys.readouterr().err


def test_pool_size_is_capped_by_tasks_and_cores(tmp_path, monkeypatch):
    import regraph.experiments as experiments

    sizes = []

    class InlinePool:
        """Records the requested pool size and runs each task inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setenv("REGRAPH_THREADS", "5000")
    cfg = ExperimentConfig(  # 6 tasks
        "diameter_scaling", 3, [16, 20], seed=5, replications=3, output_dir=str(tmp_path)
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pooled = run_experiment(cfg)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_experiment(cfg)
    assert sizes == [4, 6]
    serial = run_experiment(cfg, workers=1)
    assert [r["diameter"] for r in pooled.rows] == [r["diameter"] for r in serial.rows]


def test_pool_failure_runs_serially_with_one_warning(tmp_path, monkeypatch, capsys):
    import regraph.experiments as experiments

    class RefusedPool:
        def __init__(self, max_workers):
            raise PermissionError("worker processes refused")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RefusedPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cfg = ExperimentConfig(
        "diameter_scaling", 3, [16], seed=5, replications=2, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=2)
    assert len(result.rows) == 2
    warnings = [line for line in capsys.readouterr().err.splitlines() if "process pool" in line]
    assert len(warnings) == 1 and "PermissionError" in warnings[0]


def test_plot_is_valid_svg_with_one_marker_per_aggregate(tmp_path):
    cfg = ExperimentConfig(
        "congestion_scaling", 3, [10, 16, 20], seed=4, replications=2, output_dir=str(tmp_path)
    )
    result = run_experiment(cfg, workers=1)
    root = ET.fromstring(result.plot_path.read_text())
    assert root.tag.endswith("svg")
    markers = [
        el
        for el in root.iter()
        if el.tag.endswith("circle") and el.attrib.get("class") == "pt"
    ]
    assert len(markers) == len(result.aggregates)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_generate_then_congestion(tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    assert main(["generate", "--n", "10", "--d", "3", "--seed", "7", "--out", str(edge_file)]) == 0
    capsys.readouterr()
    assert main(["congestion", "--in", str(edge_file)]) == 0
    out = capsys.readouterr().out
    meta = {
        line.split("=")[0][2:]: line.split("=")[1]
        for line in out.strip().split("\n")
        if line.startswith("# ")
    }
    m = float(meta["max_flow"])
    assert 9 <= m <= 45  # n-1 .. n(n-1)/2 bracket for n=10


def test_cli_congestion_oracle_agrees(tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    main(["generate", "--n", "12", "--d", "3", "--seed", "3", "--out", str(edge_file)])
    capsys.readouterr()
    assert main(["congestion", "--in", str(edge_file)]) == 0
    plain = capsys.readouterr().out
    assert main(["congestion", "--in", str(edge_file), "--oracle"]) == 0
    oracle = capsys.readouterr().out
    flows_plain = [float(ln.split(",")[1]) for ln in plain.strip().split("\n")[1:] if "," in ln and not ln.startswith("#")]
    flows_oracle = [float(ln.split(",")[1]) for ln in oracle.strip().split("\n")[1:] if "," in ln and not ln.startswith("#")]
    assert len(flows_plain) == 12
    for a, b in zip(flows_plain, flows_oracle):
        assert a == pytest.approx(b, abs=1e-9)


def test_cli_delta_on_path_prints_zero(tmp_path, capsys):
    edge_file = tmp_path / "p.txt"
    edge_file.write_text("4 3\n0 1\n1 2\n2 3\n")
    assert main(["delta", "--in", str(edge_file)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "0"


def test_cli_diameter_regular_annotation(tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    main(["generate", "--n", "16", "--d", "3", "--seed", "1", "--out", str(edge_file)])
    capsys.readouterr()
    assert main(["diameter", "--in", str(edge_file)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].isdigit()
    assert lines[1].startswith("# reference d=3")


def test_cli_cycle_probe(tmp_path, capsys):
    edge_file = tmp_path / "c.txt"
    edge_file.write_text("6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
    assert main(["cycle-probe", "--in", str(edge_file), "--pairs", "4", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("v,w,found,length,defect,quadruple_defect")


def test_cli_experiment(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(CONFIG_TEXT.format(out=tmp_path / "results"))
    assert main(["experiment", "--config", str(cfg_file), "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "csv:" in out and "plot:" in out
    assert (tmp_path / "results" / "congestion_scaling_d3.csv").exists()
    assert (tmp_path / "results" / "congestion_scaling_d3.svg").exists()


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["congestion", "--in", str(tmp_path / "missing.txt")]) == 1
    assert main(["generate", "--n", "10"]) == 1  # missing required flags
    bad_cfg = tmp_path / "bad.txt"
    bad_cfg.write_text("kind = nope\nd = 3\nn_values = 10\nseed = 1")
    assert main(["experiment", "--config", str(bad_cfg)]) == 1
    capsys.readouterr()


def test_cli_runtime_failure_exit_code(tmp_path, capsys):
    # d=1 on n=4 can never be connected: retry exhaustion is a runtime failure
    code = main(
        ["generate", "--n", "4", "--d", "1", "--seed", "1", "--max-retries", "32"]
    )
    capsys.readouterr()
    assert code == 2
