"""The TSV row contract, checked on every public reader.

Every tab-separated input and artifact is read by the same rules: UTF-8,
blank lines skipped, an exact field count per row (a ``ParseError``
naming the row's line otherwise), and ``cannot read <what> <path>: ...``
as a ``ResourceError`` for a file that is missing or not UTF-8.  ``#``
comment lines are skipped in the three taxonomy files only.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from tagrec.artifacts import read_clusters_tsv, read_profiles_tsv, read_sims_tsv
from tagrec.corpus import load_bigrams
from tagrec.errors import ParseError, ResourceError
from tagrec.profiles import ingest_profiles
from tagrec.segmenter import load_golden
from tagrec.taxonomy import load_taxonomy

TAXONOMY_ROWS = {
    "synsets": ("n1\tn\tentity", "n2\tn\tanimal", "n3\tn\tdog,hound"),
    "edges": ("n2\tn1", "n3\tn2", "n3\tn1"),
    "counts": ("n1\t2", "n2\t0", "n3\t5"),
}


def write_rows(path, rows):
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    return path


def read_taxonomy_with(slot: str):
    """Load a taxonomy whose ``slot`` file is the path under test."""

    def read(path):
        files = {
            name: path if name == slot else write_rows(path.parent / f"valid_{name}.tsv", rows)
            for name, rows in TAXONOMY_ROWS.items()
        }
        taxonomy = load_taxonomy(files["synsets"], files["edges"], files["counts"])
        return taxonomy.synsets, taxonomy.parents, taxonomy.freq

    return read


def read_profiles(path):
    return [(profile.id, profile.words) for profile in read_profiles_tsv(path)]


def read_sims(path):
    matrix = read_sims_tsv(path)
    return matrix.ids, matrix.condensed.tolist()


def read_clusters(path):
    clustering = read_clusters_tsv(path)
    return clustering.k, clustering.medoids, clustering.assignment


@dataclass(frozen=True)
class Reader:
    name: str
    what: str  # the file's name in ``cannot read <what> <path>``
    rows: tuple[str, ...]  # a valid file, one row per line
    read: Callable  # path -> a comparable summary of what was read

    @property
    def n_fields(self) -> int:
        return self.rows[0].count("\t") + 1


READERS = [
    Reader("load_bigrams", "bigrams", ("world\twide\t5", "wide\tfestival\t2", "world\twide\t1"),
           lambda p: load_bigrams(p).counts),
    Reader("load_golden", "golden set", ("#chef\tchef", "#worldwide\tworldwide", "#pizzachef\tpizza chef"),
           load_golden),
    Reader("ingest_profiles", "users file", ("u1\t#pizza,#chef", "u2\t#album", "u1\t#pasta"), ingest_profiles),
    *(Reader(f"load_taxonomy[{slot}]", slot, rows, read_taxonomy_with(slot)) for slot, rows in TAXONOMY_ROWS.items()),
    Reader("read_profiles_tsv", "profiles", ("u1\tchef pizza", "u2\talbum", "u3\t"), read_profiles),
    Reader("read_sims_tsv", "similarity matrix", ("u1\tu2\t0.500000", "u1\tu3\t0.250000", "u2\tu3\t1.000000"),
           read_sims),
    Reader("read_clusters_tsv", "clusters", ("u1\t0\tu1", "u2\t0\tu1", "u3\t1\tu3"), read_clusters),
]
TAXONOMY_READERS = [r for r in READERS if r.name.startswith("load_taxonomy")]


def by_name(readers):
    return pytest.mark.parametrize("reader", readers, ids=[r.name for r in readers])


@by_name(READERS)
def test_blank_lines_are_skipped(reader, tmp_path):
    plain = reader.read(write_rows(tmp_path / "plain.tsv", reader.rows))
    spaced = write_rows(tmp_path / "spaced.tsv", ("", reader.rows[0], " \t ", "", *reader.rows[1:], ""))
    assert reader.read(spaced) == plain


@by_name(READERS)
@pytest.mark.parametrize("extra", [1, -1], ids=["too many", "too few"])
def test_wrong_field_count_names_its_line(reader, extra, tmp_path):
    fields = reader.rows[1].split("\t")
    bad = "\t".join(fields + ["x"] if extra > 0 else fields[:-1])
    path = write_rows(tmp_path / "bad.tsv", (reader.rows[0], "", bad, *reader.rows[2:]))
    with pytest.raises(ParseError) as exc:
        reader.read(path)
    assert exc.value.line_no == 3
    assert str(exc.value) == f"{path}:3: expected {reader.n_fields} tab-separated fields, got {len(fields) + extra}"


@by_name(READERS)
def test_missing_file_is_a_resource_error(reader, tmp_path):
    path = tmp_path / "missing.tsv"
    with pytest.raises(ResourceError) as exc:
        reader.read(path)
    assert str(exc.value).startswith(f"cannot read {reader.what} {path}: ")
    assert isinstance(exc.value.__cause__, FileNotFoundError)


@by_name(READERS)
def test_invalid_utf8_is_a_resource_error(reader, tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(reader.rows[0].encode("utf-8") + b"\n" + reader.rows[1].encode("utf-8") + b"\xe9\n")
    with pytest.raises(ResourceError) as exc:
        reader.read(path)
    assert str(exc.value).startswith(f"cannot read {reader.what} {path}: ")
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


@by_name(TAXONOMY_READERS)
def test_taxonomy_comment_lines_are_skipped(reader, tmp_path):
    plain = reader.read(write_rows(tmp_path / "plain.tsv", reader.rows))
    commented_rows = ("# header", reader.rows[0], "#\ta\tb\tc\td", *reader.rows[1:])
    assert reader.read(write_rows(tmp_path / "commented.tsv", commented_rows)) == plain
    bad = write_rows(tmp_path / "bad.tsv", ("# header", reader.rows[0], "a\tb\tc\td\te"))
    with pytest.raises(ParseError) as exc:
        reader.read(bad)
    assert exc.value.line_no == 3


def test_rows_starting_with_hash_are_data_outside_the_taxonomy(tmp_path):
    golden = write_rows(tmp_path / "golden.tsv", ("#chef\tchef", "# not a comment\tnot a comment"))
    assert load_golden(golden) == [("#chef", ("chef",)), ("# not a comment", ("not", "a", "comment"))]
    users = write_rows(tmp_path / "users.tsv", ("#u1\t#chef",))
    assert ingest_profiles(users) == [("#u1", ["#chef"])]
