"""CLI subcommands, run-all chaining, caching, and atomicity."""

import json
from pathlib import Path

import pytest

from tagrec.cli import main
from tagrec.pipeline import PipelineConfig, load_config_file, run_all

DATA = Path(__file__).resolve().parent.parent / "data"

USERS = """\
a1\t#pizzarecipe,#chef,#pasta
a2\t#pizza,#dessert,#bakingkitchen
a3\t#flavor,#chefdessert
b1\t#guitarconcert,#album
b2\t#melody,#rhythmband,#chorus
b3\t#drummer,#guitar,#album
"""


@pytest.fixture
def users_file(tmp_path):
    path = tmp_path / "users.tsv"
    path.write_text(USERS, encoding="utf-8")
    return path


def base_args(users_file, out_dir):
    return [
        "run-all",
        "--users", str(users_file),
        "--lexicon", str(DATA / "lexicon.txt"),
        "--bigrams", str(DATA / "bigrams.tsv"),
        "--synsets", str(DATA / "taxonomy" / "synsets.tsv"),
        "--edges", str(DATA / "taxonomy" / "edges.tsv"),
        "--counts", str(DATA / "taxonomy" / "counts.tsv"),
        "--out-dir", str(out_dir),
        "--k", "2",
        "--seed", "7",
        "--top", "2",
    ]


class TestSegmentCommand:
    def test_segments_from_file(self, tmp_path, capsys):
        infile = tmp_path / "tags.txt"
        infile.write_text("#worldwidefestival\n#worldwide\n#xqzv\n#tbt2015\n", encoding="utf-8")
        code = main(
            [
                "segment",
                "--lexicon", str(DATA / "lexicon.txt"),
                "--bigrams", str(DATA / "bigrams.tsv"),
                "--in", str(infile),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "#worldwidefestival\tdisambiguated\tworldwide festival"
        assert lines[1] == "#worldwide\texact_word\tworldwide"
        assert lines[2] == "#xqzv\tunsegmentable\t"
        assert lines[3] == "#tbt2015\tinvalid\t"


class TestEvaluateCommand:
    def test_reports_success_rate(self, capsys):
        code = main(
            [
                "evaluate",
                "--lexicon", str(DATA / "lexicon.txt"),
                "--bigrams", str(DATA / "bigrams.tsv"),
                "--golden", str(DATA / "golden_hashtags.tsv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("success rate: 1.0000")


class TestRunAll:
    def test_produces_artifacts_and_sidecars(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(base_args(users_file, out_dir)) == 0
        for name in ("profiles.tsv", "sims.tsv", "clusters.tsv", "recommendations.tsv"):
            assert (out_dir / name).is_file(), name
            assert (out_dir / (name + ".meta.json")).is_file(), name
        stdout = capsys.readouterr().out
        assert stdout.count("computed") == 4

    def test_rerun_is_fully_cached(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        capsys.readouterr()
        assert main(base_args(users_file, out_dir)) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("] cached ->") == 4

    def test_parameter_change_invalidates_downstream(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        capsys.readouterr()
        args = base_args(users_file, out_dir)
        args[args.index("--k") + 1] = "3"
        assert main(args) == 0
        stdout = capsys.readouterr().out
        # profiles and sims stay cached; cluster and recommend recompute
        assert "[profiles] cached" in stdout
        assert "[simmatrix] cached" in stdout
        assert "[cluster] computed" in stdout

    def test_force_recomputes(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        capsys.readouterr()
        assert main(base_args(users_file, out_dir) + ["--force"]) == 0
        assert capsys.readouterr().out.count("computed") == 4

    def test_outputs_byte_identical_across_reruns(self, users_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(base_args(users_file, out1))
        main(base_args(users_file, out2))
        for name in ("profiles.tsv", "sims.tsv", "clusters.tsv", "recommendations.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_equals_manual_subcommand_chain(self, users_file, tmp_path):
        auto = tmp_path / "auto"
        main(base_args(users_file, auto))

        manual = tmp_path / "manual"
        manual.mkdir()
        corpus = ["--lexicon", str(DATA / "lexicon.txt"), "--bigrams", str(DATA / "bigrams.tsv")]
        tax = [
            "--synsets", str(DATA / "taxonomy" / "synsets.tsv"),
            "--edges", str(DATA / "taxonomy" / "edges.tsv"),
            "--counts", str(DATA / "taxonomy" / "counts.tsv"),
        ]
        assert main(["profiles", *corpus, "--in", str(users_file), "--out", str(manual / "profiles.tsv")]) == 0
        assert main(["simmatrix", "--profiles", str(manual / "profiles.tsv"), *tax, "--out", str(manual / "sims.tsv")]) == 0
        assert main(["cluster", "--sims", str(manual / "sims.tsv"), "--k", "2", "--seed", "7", "--out", str(manual / "clusters.tsv")]) == 0
        assert main([
            "recommend", "--clusters", str(manual / "clusters.tsv"), "--sims", str(manual / "sims.tsv"),
            "--all", "--top", "2", "--out", str(manual / "recommendations.tsv"),
        ]) == 0
        for name in ("profiles.tsv", "sims.tsv", "clusters.tsv", "recommendations.tsv"):
            assert (auto / name).read_bytes() == (manual / name).read_bytes(), name

    def test_missing_lexicon_names_stage(self, users_file, tmp_path, capsys):
        args = base_args(users_file, tmp_path / "out")
        args[args.index("--lexicon") + 1] = str(tmp_path / "missing.txt")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "profiles" in err and "lexicon" in err

    def test_sidecar_contents(self, users_file, tmp_path):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        meta = json.loads((out_dir / "clusters.tsv.meta.json").read_text())
        assert meta["stage"] == "cluster"
        assert meta["params"] == {"k": 2, "seed": 7, "max_iter": 100}
        assert set(meta["inputs"]) == {"sims"}
        assert len(meta["output_sha256"]) == 64


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = tmp_path / "pipeline.cfg"
        config.write_text(
            f"""
            users = {users_file}
            lexicon = {DATA / 'lexicon.txt'}
            bigrams = {DATA / 'bigrams.tsv'}
            synsets = {DATA / 'taxonomy' / 'synsets.tsv'}
            edges = {DATA / 'taxonomy' / 'edges.tsv'}
            counts = {DATA / 'taxonomy' / 'counts.tsv'}
            out-dir = {out_dir}
            k = 3            # flag below overrides this
            seed = 7
            top = 2
            """,
            encoding="utf-8",
        )
        assert main(["run-all", "--config", str(config), "--k", "2"]) == 0
        capsys.readouterr()
        meta = json.loads((out_dir / "clusters.tsv.meta.json").read_text())
        assert meta["params"]["k"] == 2
        assert meta["params"]["seed"] == 7

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery = 1\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_config_file(config)

    def test_missing_required_reports_error(self, tmp_path, capsys):
        assert main(["run-all", "--k", "2"]) == 1
        assert "run-all needs" in capsys.readouterr().err


class TestCliErrors:
    @pytest.mark.parametrize("case", ["config value", "missing input", "profiles out", "segment out"])
    def test_failure_is_an_error_line(self, case, users_file, tmp_path, capsys):
        corpus = ["--lexicon", str(DATA / "lexicon.txt"), "--bigrams", str(DATA / "bigrams.tsv")]
        config = tmp_path / "bad.cfg"
        config.write_text("k = abc\n", encoding="utf-8")
        tags = tmp_path / "tags.txt"
        tags.write_text("#chef\n", encoding="utf-8")
        blocker = tmp_path / "blocker"  # a file where a directory is needed
        blocker.write_text("", encoding="utf-8")
        argv = {
            "config value": ["run-all", "--config", str(config)],
            "missing input": ["segment", *corpus, "--in", str(tmp_path / "missing.txt")],
            "profiles out": ["profiles", *corpus, "--in", str(users_file), "--out", str(blocker / "p.tsv")],
            "segment out": ["segment", *corpus, "--in", str(tags), "--out", str(blocker / "s.tsv")],
        }[case]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestClusterStatsCommand:
    def test_histogram_output(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        capsys.readouterr()
        assert main(["cluster-stats", "--clusters", str(out_dir / "clusters.tsv")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        sizes = [int(line.split("\t")[1]) for line in lines]
        assert sum(sizes) == 6
        assert len(lines) == 2


class TestRecommendCommand:
    def test_single_target(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        capsys.readouterr()
        code = main(
            [
                "recommend",
                "--clusters", str(out_dir / "clusters.tsv"),
                "--sims", str(out_dir / "sims.tsv"),
                "--target", "a1",
                "--top", "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("a1\t") for line in lines)
        candidates = {line.split("\t")[2] for line in lines}
        assert candidates <= {"a2", "a3"}

    def test_needs_target_or_all(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        capsys.readouterr()
        code = main(
            [
                "recommend",
                "--clusters", str(out_dir / "clusters.tsv"),
                "--sims", str(out_dir / "sims.tsv"),
                "--top", "2",
            ]
        )
        assert code == 1


class TestRunAllApi:
    def test_reports(self, users_file, tmp_path):
        cfg = PipelineConfig(
            users=users_file,
            lexicon=DATA / "lexicon.txt",
            bigrams=DATA / "bigrams.tsv",
            synsets=DATA / "taxonomy" / "synsets.tsv",
            edges=DATA / "taxonomy" / "edges.tsv",
            counts=DATA / "taxonomy" / "counts.tsv",
            out_dir=tmp_path / "out",
            k=2,
            seed=7,
            top=2,
        )
        reports = run_all(cfg)
        assert [r.stage for r in reports] == ["profiles", "simmatrix", "cluster", "recommend"]
        assert not any(r.cached for r in reports)
        reports = run_all(cfg)
        assert all(r.cached for r in reports)
