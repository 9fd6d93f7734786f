"""CLI subcommands, run-all chaining, caching, and atomicity."""

import io
import json
import os
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from tagrec import artifacts, segmenter
from tagrec.cli import main
from tagrec.corpus import DEFAULT_FLOOR_PROB, load_bigrams, load_lexicon
from tagrec.errors import InputError
from tagrec.matcher import build_similarity_matrix
from tagrec.pipeline import (
    PipelineConfig,
    compute_profiles,
    compute_recommendations,
    compute_simmatrix,
    load_config_file,
    run_all,
)
from tagrec.segmenter import segment
from tagrec.taxonomy import DEFAULT_IC_CAP, Taxonomy, load_taxonomy

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

    @pytest.mark.parametrize("from_stdin", [False, True])
    def test_one_batch_matches_per_line_segment(self, tmp_path, monkeypatch, capsys, caplog, from_stdin):
        golden = [line.split("\t")[0] for line in (DATA / "golden_hashtags.tsv").read_text("utf-8").splitlines()]
        extra = ["#tbt2015", "", "   ", "  #WorldWide  ", "#", golden[0], "#tbt2015", "worldwidefestival", "#café"]
        text = "\n".join(golden + extra) + "\n"
        lexicon = load_lexicon(DATA / "lexicon.txt")
        bigrams = load_bigrams(DATA / "bigrams.tsv", floor_prob=DEFAULT_FLOOR_PROB)
        want, rejected = [], []
        for line in text.splitlines():
            raw = line.strip()
            if not raw:
                continue
            try:
                result = segment(raw, lexicon, bigrams)
            except InputError:
                rejected.append(f"rejected hashtag {raw!r}")
                want.append(f"{raw}\tinvalid\t\n")
                continue
            want.append(f"{raw}\t{result.status.value}\t{' '.join(result.tokens)}\n")
        walk = segmenter._walk
        walks = []

        def counting_walk(bodies, trie):
            walks.append(len(bodies))
            return walk(bodies, trie)

        monkeypatch.setattr(segmenter, "_walk", counting_walk)
        argv = ["segment", "--lexicon", str(DATA / "lexicon.txt"), "--bigrams", str(DATA / "bigrams.tsv")]
        if from_stdin:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        else:
            infile = tmp_path / "tags.txt"
            infile.write_text(text, encoding="utf-8")
            argv += ["--in", str(infile)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "".join(want)
        assert len(walks) == 1
        assert [r.getMessage() for r in caplog.records if r.name == "tagrec"] == rejected
        assert len(rejected) == 4

    def test_unreadable_input_leaves_out_file_as_it_was(self, tmp_path, capsys):
        infile = tmp_path / "latin1.txt"
        infile.write_bytes(b"#chef\n#foo\xe9\n")
        out = tmp_path / "out.tsv"
        out.write_bytes(b"kept\n")
        argv = ["segment", "--lexicon", str(DATA / "lexicon.txt"), "--bigrams", str(DATA / "bigrams.tsv")]
        assert main(argv + ["--in", str(infile), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read hashtags {infile}: ")
        assert out.read_bytes() == b"kept\n"


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

    @pytest.mark.parametrize("users", [USERS.splitlines(keepends=True)[0], ""], ids=["one user", "no users"])
    def test_fewer_than_two_profiles_fail_at_simmatrix(self, users, tmp_path, capsys):
        # sims.tsv names its ids only in its pair rows, so it cannot carry a matrix of one id
        users_file = tmp_path / "users.tsv"
        users_file.write_text(users, encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(base_args(users_file, out_dir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'simmatrix': ")
        assert f"holds {len(users.splitlines())} profile(s)" in err
        assert not (out_dir / "sims.tsv").exists()

    def test_negative_ic_cap_fails_at_simmatrix(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(base_args(users_file, out_dir) + ["--ic-cap", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'simmatrix': ic_cap must be a positive finite number, got -1.0")
        assert not (out_dir / "sims.tsv").exists()

    def test_workers_below_one_fail_at_simmatrix(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(base_args(users_file, out_dir) + ["--workers", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'simmatrix': workers must be at least 1, got 0")
        assert not (out_dir / "sims.tsv").exists()

    @pytest.mark.parametrize(
        "edit",
        [lambda meta: [], lambda meta: {**meta, "inputs": {**meta["inputs"], "users": "abc"}}],
        ids=["list", "input string"],
    )
    def test_sidecar_of_wrong_shape_recomputes(self, users_file, tmp_path, capsys, edit):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        profiles = (out_dir / "profiles.tsv").read_bytes()
        meta_path = out_dir / "profiles.tsv.meta.json"
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        capsys.readouterr()
        assert main(base_args(users_file, out_dir)) == 0
        stdout = capsys.readouterr().out
        assert "[profiles] computed" in stdout
        assert stdout.count("] cached ->") == 3
        assert (out_dir / "profiles.tsv").read_bytes() == profiles
        assert json.loads((out_dir / "profiles.tsv.meta.json").read_text())["stage"] == "profiles"

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

    def test_config_file_and_flags_give_equal_configs(self, users_file, tmp_path, monkeypatch):
        settings = {
            "k": 5,
            "seed": 11,
            "max_iter": 9,
            "top": 4,
            "workers": 2,
            "bigram_floor": 0.001,
            "ic_cap": 12.5,
            "counts": DATA / "taxonomy" / "counts.tsv",
        }
        required = ["--users", str(users_file), "--lexicon", str(DATA / "lexicon.txt")]
        required += ["--bigrams", str(DATA / "bigrams.tsv"), "--synsets", str(DATA / "taxonomy" / "synsets.tsv")]
        required += ["--edges", str(DATA / "taxonomy" / "edges.tsv"), "--out-dir", str(tmp_path / "out")]
        configs = []
        monkeypatch.setattr("tagrec.pipeline.run_all", lambda cfg: configs.append(cfg) or [])
        config = tmp_path / "pipeline.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()), encoding="utf-8")
        assert main(["run-all", *required, "--config", str(config)]) == 0
        flags = [arg for key, value in settings.items() for arg in ("--" + key.replace("_", "-"), str(value))]
        assert main(["run-all", *required, *flags]) == 0
        from_file, from_flags = configs
        assert from_file == from_flags
        assert {key: getattr(from_file, key) for key in settings} == settings
        for key, value in settings.items():
            assert type(getattr(from_file, key)) is type(value), key

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery = 1\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_config_file(config)

    def test_missing_required_reports_error(self, tmp_path, capsys):
        assert main(["run-all", "--k", "2"]) == 1
        assert "run-all needs" in capsys.readouterr().err


class TestCliErrors:
    @pytest.mark.parametrize(
        "case",
        [
            "config value",
            "missing input",
            "profiles out",
            "segment out",
            "config not utf-8",
            "segment in not utf-8",
            "cluster empty sims",
        ],
    )
    def test_failure_is_an_error_line(self, case, users_file, tmp_path, capsys):
        corpus = ["--lexicon", str(DATA / "lexicon.txt"), "--bigrams", str(DATA / "bigrams.tsv")]
        config = tmp_path / "bad.cfg"
        config.write_text("k = abc\n", encoding="utf-8")
        undecodable_config = tmp_path / "latin1.cfg"
        undecodable_config.write_bytes(b"k = \xe9\n")
        tags = tmp_path / "tags.txt"
        tags.write_text("#chef\n", encoding="utf-8")
        undecodable_tags = tmp_path / "latin1.txt"
        undecodable_tags.write_bytes(b"#chef\n#foo\xe9\n")
        blocker = tmp_path / "blocker"  # a file where a directory is needed
        blocker.write_text("", encoding="utf-8")
        empty_sims = tmp_path / "empty.tsv"  # reads as a matrix of no ids
        empty_sims.write_text("", encoding="utf-8")
        argv, message = {
            "config value": (["run-all", "--config", str(config)], "error: config key 'k': 'abc' is not a valid int\n"),
            "missing input": (["segment", *corpus, "--in", str(tmp_path / "missing.txt")], "error:"),
            "profiles out": (
                ["profiles", *corpus, "--in", str(users_file), "--out", str(blocker / "p.tsv")],
                "error:",
            ),
            "segment out": (["segment", *corpus, "--in", str(tags), "--out", str(blocker / "s.tsv")], "error:"),
            "config not utf-8": (
                ["run-all", "--config", str(undecodable_config)],
                f"error: stage 'config': cannot read config file {undecodable_config}: ",
            ),
            "segment in not utf-8": (
                ["segment", *corpus, "--in", str(undecodable_tags)],
                f"error: cannot read hashtags {undecodable_tags}: ",
            ),
            "cluster empty sims": (
                ["cluster", "--sims", str(empty_sims), "--k", "2", "--out", str(tmp_path / "c.tsv")],
                f"error: {empty_sims} holds no pair rows\n",
            ),
        }[case]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(message)


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

    def test_target_and_all_are_exclusive(self, users_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(base_args(users_file, out_dir))
        capsys.readouterr()
        out = tmp_path / "recs.tsv"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "recommend",
                    "--clusters", str(out_dir / "clusters.tsv"),
                    "--sims", str(out_dir / "sims.tsv"),
                    "--target", "a1",
                    "--all",
                    "--top", "2",
                    "--out", str(out),
                ]
            )
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


def api_config(users_file, out_dir) -> PipelineConfig:
    return PipelineConfig(
        users=users_file,
        lexicon=DATA / "lexicon.txt",
        bigrams=DATA / "bigrams.tsv",
        synsets=DATA / "taxonomy" / "synsets.tsv",
        edges=DATA / "taxonomy" / "edges.tsv",
        counts=DATA / "taxonomy" / "counts.tsv",
        out_dir=out_dir,
        k=2,
        seed=7,
        top=2,
    )


class TestRunAllApi:
    def test_reports(self, users_file, tmp_path):
        cfg = api_config(users_file, tmp_path / "out")
        reports = run_all(cfg)
        assert [r.stage for r in reports] == ["profiles", "simmatrix", "cluster", "recommend"]
        assert not any(r.cached for r in reports)
        reports = run_all(cfg)
        assert all(r.cached for r in reports)

    def test_cached_run_hashes_each_file_once(self, users_file, tmp_path, monkeypatch):
        cfg = api_config(users_file, tmp_path / "out")
        run_all(cfg)
        hashed = Counter()
        sha256_file = artifacts.sha256_file

        def counted(path):
            hashed[os.fspath(path)] += 1
            return sha256_file(path)

        monkeypatch.setattr(artifacts, "sha256_file", counted)
        assert all(r.cached for r in run_all(cfg))
        inputs = {cfg.users, cfg.lexicon, cfg.bigrams, cfg.synsets, cfg.edges, cfg.counts}
        outputs = {cfg.out_dir / name for name in ("profiles.tsv", "sims.tsv", "clusters.tsv", "recommendations.tsv")}
        assert hashed == Counter({os.fspath(p): 1 for p in inputs | outputs})

    def test_input_rewritten_between_runs_recomputes(self, users_file, tmp_path):
        cfg = api_config(users_file, tmp_path / "out")
        run_all(cfg)
        # same size, same inode and the same mtime: only the content differs
        before = users_file.stat()
        users_file.write_text(USERS.replace("#chef,", "#band,"), encoding="utf-8")
        os.utime(users_file, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert users_file.stat().st_size == before.st_size
        reports = run_all(cfg)
        assert not reports[0].cached
        assert "band" in (cfg.out_dir / "profiles.tsv").read_text(encoding="utf-8").splitlines()[0].split()

    def test_moved_input_with_same_bytes_stays_cached(self, users_file, tmp_path):
        cfg = api_config(users_file, tmp_path / "out")
        run_all(cfg)
        cfg.users = tmp_path / "moved" / "users.tsv"
        cfg.users.parent.mkdir()
        cfg.users.write_bytes(users_file.read_bytes())
        assert all(r.cached for r in run_all(cfg))

    def test_sims_parsed_once_per_computing_run(self, users_file, tmp_path, monkeypatch):
        cfg = api_config(users_file, tmp_path / "out")
        parsed = []
        read_sims_tsv = artifacts.read_sims_tsv

        def counted(path, **kwargs):
            parsed.append((path, kwargs))
            return read_sims_tsv(path, **kwargs)

        monkeypatch.setattr(artifacts, "read_sims_tsv", counted)
        cold = run_all(cfg)
        assert [r.cached for r in cold] == [False] * 4
        # the cold run checks the file it wrote against the writer's renderer
        assert parsed == [(cfg.out_dir / "sims.tsv", {"trusted": False})]
        cfg.k, cfg.seed = 3, 8
        retune = run_all(cfg)
        assert [r.cached for r in retune] == [True, True, False, False]
        assert len(parsed) == 2
        # the retune's simmatrix cache check matched the file's digest
        assert parsed[1] == (cfg.out_dir / "sims.tsv", {"trusted": True})
        assert all(r.cached for r in run_all(cfg))
        assert len(parsed) == 2

    def test_sims_rewritten_between_runs_is_not_trusted(self, users_file, tmp_path, monkeypatch):
        cfg = api_config(users_file, tmp_path / "out")
        sims = cfg.out_dir / "sims.tsv"
        parsed = []
        read_sims_tsv = artifacts.read_sims_tsv

        def counted(path, **kwargs):
            parsed.append(kwargs["trusted"])
            return read_sims_tsv(path, **kwargs)

        monkeypatch.setattr(artifacts, "read_sims_tsv", counted)
        run_all(cfg)
        cfg.k, cfg.seed = 3, 8
        run_all(cfg)
        assert parsed == [False, True]  # this file version was proved, in that run
        # other bytes of the same size, same inode and the same mtime: the stat key of the proved version
        before = sims.stat()
        text = sims.read_bytes()
        last = text.index(b"\n") - 1  # the first cell's last digit
        sims.write_bytes(text[:last] + (b"1" if text[last : last + 1] == b"0" else b"0") + text[last + 1 :])
        os.utime(sims, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = sims.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, before.st_mtime_ns)
        cfg.k, cfg.seed = 2, 7
        reports = run_all(cfg)
        assert [r.cached for r in reports] == [True, False, False, False]
        assert parsed == [False, True, False]
        assert sims.read_bytes() == text

    def test_edited_code_digest_recomputes_stage(self, users_file, tmp_path):
        cfg = api_config(users_file, tmp_path / "out")
        run_all(cfg)
        meta_path = cfg.out_dir / "sims.tsv.meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert meta["code_sha256"] == artifacts.code_sha256()
        meta["code_sha256"] = "0" * 64
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        reports = run_all(cfg)
        # the same bytes come out again, so the stages after it stay cached
        assert [r.cached for r in reports] == [True, False, True, True]
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert meta["code_sha256"] == artifacts.code_sha256()


class TestSimmatrixTable:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_taxonomy_path_asks_no_pairs(self, users_file, tmp_path, monkeypatch, workers):
        taxonomy = DATA / "taxonomy"
        tax_files = (taxonomy / "synsets.tsv", taxonomy / "edges.tsv", taxonomy / "counts.tsv")
        profiles_tsv = tmp_path / "profiles.tsv"
        compute_profiles(users_file, DATA / "lexicon.txt", DATA / "bigrams.tsv", DEFAULT_FLOOR_PROB, profiles_tsv)
        asked = []
        word_similarity = Taxonomy.word_similarity

        def counted(self, w1, w2):
            asked.append((w1, w2))
            return word_similarity(self, w1, w2)

        monkeypatch.setattr(Taxonomy, "word_similarity", counted)
        sims = tmp_path / "sims.tsv"
        compute_simmatrix(profiles_tsv, *tax_files, DEFAULT_IC_CAP, workers, sims)
        assert asked == []

        pairwise = tmp_path / "pairwise.tsv"
        profiles = artifacts.read_profiles_tsv(profiles_tsv)
        artifacts.write_sims_tsv(pairwise, build_similarity_matrix(profiles, load_taxonomy(*tax_files).word_similarity))
        assert asked  # the pairwise adapter did ask word_similarity
        assert sims.read_bytes() == pairwise.read_bytes()


class TestRankingInputs:
    @pytest.fixture
    def out_dir(self, users_file, tmp_path):
        out_dir = tmp_path / "out"
        assert main(base_args(users_file, out_dir)) == 0
        return out_dir

    def test_cluster_id_missing_from_sims(self, out_dir, tmp_path):
        clusters = out_dir / "clusters.tsv"
        with clusters.open("a", encoding="utf-8") as fh:
            fh.write("ghost\t2\tghost\n")  # in a cluster of its own
        sims = out_dir / "sims.tsv"
        message = f"id 'ghost' of {clusters} is missing from {sims}"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            compute_recommendations(sims, clusters, 2, tmp_path / "recs.tsv")

    def test_sims_id_missing_from_clusters(self, out_dir, tmp_path):
        clusters = out_dir / "clusters.tsv"
        rows = clusters.read_text(encoding="utf-8").splitlines(keepends=True)
        assert [r.split("\t")[0] for r in rows] == ["a1", "a2", "a3", "b1", "b2", "b3"]
        # drop a2 and b2; the medoids a3 and b3 keep their rows, or the file itself is invalid
        clusters.write_text(rows[0] + "".join(rows[2:4]) + rows[5], encoding="utf-8")
        sims = out_dir / "sims.tsv"
        message = f"id 'a2' of {sims} is missing from {clusters}"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            compute_recommendations(sims, clusters, 2, tmp_path / "recs.tsv")
