"""Start-up: the parser and the package load no numpy, and each setting has one home.

The subprocess tests run a fresh interpreter, because this test process
has imported every module already.
"""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import tagrec
from tagrec import cluster, config, corpus, pipeline, taxonomy
from tagrec.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"

# Makes every numpy import fail in the child process.
NO_NUMPY = "import sys; sys.modules['numpy'] = None\n"


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )


def loaded_after(code: str, watched) -> list[str]:
    """The modules of ``watched`` that a fresh interpreter has loaded after running ``code``."""
    done = run_python(f"{code}\nimport json, sys\nprint(json.dumps([m for m in {watched!r} if m in sys.modules]))")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestNoNumpyAtStartup:
    def test_parser_loads_no_numpy_or_stage_module(self):
        watched = ["numpy", "tagrec.pipeline", "tagrec.corpus", "tagrec.segmenter"]
        assert loaded_after("import tagrec.cli; tagrec.cli.build_parser()", watched) == []

    def test_import_tagrec_loads_no_numpy(self):
        assert loaded_after("import tagrec", ["numpy"]) == []

    def test_help_runs_without_numpy(self):
        done = run_python(NO_NUMPY + "from tagrec.cli import main; main(['--help'])")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: tagrec ")

    def test_argument_error_runs_without_numpy(self):
        done = run_python(NO_NUMPY + "from tagrec.cli import main; main(['run-all', '--k', 'abc'])")
        assert done.returncode == 2
        assert "argument --k: invalid int value: 'abc'" in done.stderr
        assert "Traceback" not in done.stderr


class TestLazyExports:
    @pytest.mark.parametrize("name", tagrec.__all__)
    def test_name_is_its_home_module_object(self, name):
        namespace = {}
        exec(f"from tagrec import {name}", namespace)
        value = namespace[name]
        assert value.__module__.startswith("tagrec.")
        assert getattr(sys.modules[value.__module__], name) is value

    def test_dir_lists_every_export(self):
        assert set(tagrec.__all__) <= set(dir(tagrec))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tagrec.no_such_name

    def test_function_keeps_its_name_over_its_submodule(self):
        # ``recommend`` names both a function and the submodule that defines it.
        done = run_python("import tagrec.recommend\nfrom tagrec import recommend\nprint(type(recommend).__name__)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["function"]

    def test_submodules_import_by_from(self):
        code = "from tagrec import artifacts, cli, pipeline\nprint(artifacts.__name__, cli.__name__, pipeline.__name__)"
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["tagrec.artifacts", "tagrec.cli", "tagrec.pipeline"]


class TestOneDefault:
    def parsed(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_parser_defaults(self):
        corpus_flags = ("--lexicon", "l", "--bigrams", "b")
        assert self.parsed("segment", *corpus_flags).bigram_floor is config.DEFAULT_FLOOR_PROB
        simmatrix = self.parsed("simmatrix", "--profiles", "p", "--synsets", "s", "--edges", "e", "--out", "o")
        assert simmatrix.ic_cap is config.DEFAULT_IC_CAP
        clustered = self.parsed("cluster", "--sims", "s", "--out", "o")
        assert clustered.k is config.PipelineConfig.k
        assert clustered.seed is config.PipelineConfig.seed
        assert clustered.max_iter is config.DEFAULT_MAX_ITER

    def test_config_defaults(self):
        assert pipeline.PipelineConfig is config.PipelineConfig
        assert pipeline.CONFIG_TYPES is config.CONFIG_TYPES
        assert pipeline.load_config_file is config.load_config_file
        defaults = {f.name: f.default for f in fields(config.PipelineConfig)}
        assert defaults["bigram_floor"] is config.DEFAULT_FLOOR_PROB
        assert defaults["ic_cap"] is config.DEFAULT_IC_CAP
        assert defaults["max_iter"] is config.DEFAULT_MAX_ITER

    def test_module_defaults(self):
        assert corpus.DEFAULT_FLOOR_PROB is config.DEFAULT_FLOOR_PROB
        assert taxonomy.DEFAULT_IC_CAP is config.DEFAULT_IC_CAP
        assert cluster.DEFAULT_MAX_ITER is config.DEFAULT_MAX_ITER

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert default(corpus.load_bigrams, "floor_prob") is config.DEFAULT_FLOOR_PROB
        assert default(corpus.BigramModel, "floor_prob") is config.DEFAULT_FLOOR_PROB
        assert default(taxonomy.load_taxonomy, "ic_cap") is config.DEFAULT_IC_CAP
        assert default(taxonomy.Taxonomy, "ic_cap") is config.DEFAULT_IC_CAP
        assert default(cluster.k_medoids, "max_iter") is config.DEFAULT_MAX_ITER
