"""A song directory decoded and computed as one batch gives, song by song,
what each song gives in a directory of its own, and fails as the songs
fail one at a time."""

import json
import logging
import random
import re

import pytest

from looptab.annotate import build_corpus, load_annotations
from looptab.atomic import token_files
from looptab.cli import main
from looptab.loops import extract_loops
from looptab import score
from looptab.score import decode, decode_parts, regular_parts, regularize_many, \
    regularize_meter, score_to_tokens
from looptab.tension import loop_tension_profiles
from looptab.tokens import render_tokens

from util import bar_block, block_bars, columns

# 3/4 and 5/4 bars whose notes run past the bar's capacity, repeated: in
# 4/4 they become 1 + 2 + 1 bars, so the song loops every 4 bars
ODD_BARS = ("time_signature:3 new_measure clean0:note:s1:f0 wait:960 clean0:note:s2:f3 "
            "bass:note:s1:f0 wait:1920 clean0:note:s1:f0 wait:960 "
            "time_signature:5 new_measure clean0:note:s3:f2 wait:4800 clean0:note:s1:f5 wait:960 "
            "time_signature:3 new_measure leads:note:s2:f7 wait:480 bass:note:s2:f4 wait:2400")
ODD_METRES = " ".join(["tempo:100 start", *[ODD_BARS] * 3, "new_measure bass:note:s1:f0", "end"])


def boundary_songs() -> dict[str, str]:
    """Song texts by name: the last four bars of ``a_tail`` are the first
    four of ``b_head`` and neither repeats inside itself, so only a match
    across the two songs would find a loop there; ``d_drums`` starts with
    a rest, so the last onset of ``c_loops`` lasts to its own end only."""
    rng = random.Random(11)
    blocks = {c: bar_block(rng, 4) for c in "ABCDEFGHXYZ"}
    drums = {c: [("drums", onset, 480, rng.choice((36, 38, 42)), None, None, ())
                 for onset in range(0, 3840, 960)] for c in "PQ"}
    drums["R"] = drums["P"][2:]  # a first bar that starts with a rest

    def text(bars, tempo=120):
        return render_tokens(score_to_tokens(columns(bars, header_tempo=tempo),
                                             include_artist=False))

    return {
        "a_tail": text(block_bars(blocks, "XYZABCD", 150), 150),
        "b_head": text(block_bars(blocks, "ABCDEFGH", 150), 150),
        "c_loops": text(block_bars(blocks, "EFGHEFGHEF", 90), 90),
        "d_drums": text(block_bars(drums, "RPQPQPQPQP")),
        "e_no_measure": "tempo:100 start end",
        "f_odd_metres": ODD_METRES,
    }


def annotations_for(names) -> str:
    rows = [f",{name},{0.1 + 0.8 * (i % 2)},{0.2 + 0.1 * i},{('major', 'minor')[i % 2]}"
            for i, name in enumerate(names)]
    return "artist,title,valence,energy,mode\n" + "\n".join(rows) + "\n"


def write_dir(path, songs: dict[str, str]):
    path.mkdir()
    for name, text in songs.items():
        (path / f"{name}.tokens").write_text(text + "\n")
    return path


def without_levels(line: str) -> str:
    return re.sub(r" (cloud_diameter|cloud_momentum|tensile_strain):q[1-4]", "", line)


@pytest.mark.parametrize("part_tokens", [score.PART_TOKENS, 100])
def test_each_song_of_a_directory_comes_out_as_in_a_directory_of_its_own(tmp_path, monkeypatch,
                                                                         part_tokens):
    monkeypatch.setattr(score, "PART_TOKENS", part_tokens)  # 100: about a song a part
    songs = boundary_songs()
    ann = tmp_path / "annotations.csv"
    ann.write_text(annotations_for(songs))
    records = load_annotations(ann)
    full = write_dir(tmp_path / "all", songs)

    def outputs(scores, name):
        out = tmp_path / f"{name}.out"
        out.mkdir()
        assert main(["loops", "--scores", str(scores), "--out", str(out / "loops.jsonl")]) == 0
        loops = [json.loads(l) for l in (out / "loops.jsonl").read_text().splitlines()]
        code = main(["tension", "--scores", str(scores), "--out-csv", str(out / "t.csv")])
        rows = ([r.split(",")[:5] for r in (out / "t.csv").read_text().splitlines()[1:]]
                if code == 0 else None)  # a song of fewer than 4 bars cannot fit quartiles
        lines, result = build_corpus(scores, records)
        return loops, rows, [without_levels(l) for l in lines], result

    loops, rows, lines, result = outputs(full, "all")
    assert not [l for l in loops if l["song"] in ("a_tail", "b_head")]
    assert {l["song"] for l in loops} == {"c_loops", "d_drums", "f_odd_metres"}
    assert (result.songs_used, result.skipped_no_loops, result.failed_files) == (3, 3, 0)
    alone_lines = []
    for name in songs:
        alone_loops, alone_rows, alone, _ = outputs(write_dir(tmp_path / name, {name: songs[name]}),
                                                    name)
        assert [l for l in loops if l["song"] == name] == alone_loops
        song_rows = [r for r in rows if r[0] == name]
        assert song_rows == (alone_rows or [])
        assert len(song_rows) == (0 if name == "e_no_measure" else
                                  decode(songs[name].split()).n_bars)
        alone_lines += alone
    assert lines == alone_lines


def test_no_loop_or_tension_range_of_a_batch_spans_two_songs(tmp_path):
    songs = boundary_songs()
    paths = token_files(write_dir(tmp_path / "all", songs))
    [(_, decoded)] = decode_parts(paths)  # a directory this small is one part
    batch = regularize_many(decoded)
    assert not batch.errors
    spans = [(s.start_bar, s.end_bar) for s in extract_loops(batch.columns, starts=batch.starts)]
    assert spans
    profiles = loop_tension_profiles(batch.columns, spans)
    for (start, end), profile in zip(spans, profiles):
        i = int(batch.starts.searchsorted(start, "right")) - 1
        assert end <= batch.starts[i + 1]
        song = regularize_meter(decode(songs[paths[i].stem].split()))
        local = (start - int(batch.starts[i]), end - int(batch.starts[i]))
        assert local in [(s.start_bar, s.end_bar) for s in extract_loops(song)]
        assert loop_tension_profiles(song, [local]) == [profile]



def test_regularized_parts_hold_at_most_max_bars_and_give_each_song_as_the_whole(monkeypatch):
    songs = boundary_songs()
    streams = [text.split() for text in songs.values()] * 3
    [(_, batch)] = decode_parts(streams)
    whole = regularize_many(batch)
    counts = [whole.starts[i + 1] - whole.starts[i] for i in range(len(whole))]
    assert max(counts) == 13 and sum(counts) > 100  # f_odd_metres
    monkeypatch.setattr(score, "MAX_BARS", 24)
    keep = [i % 4 != 1 for i in range(len(batch))]
    for flags in (None, keep):
        firsts = []
        for first, part in regular_parts(batch, flags):
            assert firsts == [] or first > firsts[-1]
            firsts.append(first)
            assert part.columns.n_bars <= 24 and not part.errors
            for i in range(len(part)):
                if flags is None or flags[first + i]:
                    assert score_to_tokens(part.song(i)) == score_to_tokens(whole.song(first + i))
                else:
                    assert part.song(i).n_bars == 0
        assert len(firsts) > 4 and first + len(part) == len(batch)
    monkeypatch.setattr(score, "MAX_BARS", 12)
    failed = {first + i: str(exc) for first, part in regular_parts(batch)
              for i, exc in part.errors.items()}
    assert failed == {i: "the song regularizes into 13 bars of 4/4, more than 12"
                      for i in range(5, len(batch), len(songs))}
    assert not [i for first, part in regular_parts(batch, keep)
                for i in part.errors if not keep[first + i]]


def test_corpus_regularizes_only_the_annotated_songs(tmp_path):
    songs = boundary_songs()
    ann = tmp_path / "annotations.csv"
    ann.write_text(annotations_for(["c_loops"]))
    records = load_annotations(ann)
    lines, result = build_corpus(write_dir(tmp_path / "all", {**songs, "bb_long": LONG}), records)
    expected, alone = build_corpus(write_dir(tmp_path / "one", {"c_loops": songs["c_loops"]}),
                                   records)
    assert lines == expected and result.songs_used == alone.songs_used == 1
    assert (result.skipped_no_annotation, result.failed_files) == (len(songs), 0)


# A malformed song and one too long to regularize, among good ones.
LONG = "start new_measure clean0:note:s1:f0 wait:4294967296 end"
BAD = "start new_measure wait:0"
LONG_ERROR = "the song regularizes into 1118482 bars of 4/4, more than 65536"
BAD_ERROR = "token 2 ('wait:0'): wait ticks must be > 0"


@pytest.fixture
def failing_dir(tmp_path):
    songs = boundary_songs()
    good = {name: songs[name] for name in ("a_tail", "b_head", "c_loops", "d_drums")}
    mixed = dict(good)
    mixed["bb_long"], mixed["bc_bad"] = LONG, BAD
    ann = tmp_path / "annotations.csv"
    ann.write_text(annotations_for(mixed))
    return write_dir(tmp_path / "mixed", mixed), write_dir(tmp_path / "good", good), ann


@pytest.mark.parametrize("part_tokens", [score.PART_TOKENS, 100])
@pytest.mark.parametrize("command,bad,message", [
    ("loops", "bb_long", LONG_ERROR),
    ("eval-loops", "bb_long", LONG_ERROR),
    ("tension", "bc_bad", BAD_ERROR),  # tension does not regularize, so the long song is fine
])
def test_the_first_failing_song_stops_a_song_command(failing_dir, tmp_path, capsys, monkeypatch,
                                                     command, bad, message, part_tokens):
    monkeypatch.setattr(score, "PART_TOKENS", part_tokens)
    mixed, _, _ = failing_dir
    out = tmp_path / "out"
    argv = {"loops": ["loops", "--scores", str(mixed), "--out", str(out)],
            "eval-loops": ["eval-loops", "--generations", str(mixed)],
            "tension": ["tension", "--scores", str(mixed), "--out-csv", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {mixed / bad}.tokens: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("part_tokens", [score.PART_TOKENS, 100])
def test_corpus_skips_the_failing_songs_and_keeps_the_rest(failing_dir, tmp_path, caplog,
                                                          monkeypatch, part_tokens):
    monkeypatch.setattr(score, "PART_TOKENS", part_tokens)
    mixed, good, ann = failing_dir
    records = load_annotations(ann)
    with caplog.at_level(logging.ERROR, logger="looptab.annotate"):
        lines, result = build_corpus(mixed, records)
    assert [r.getMessage() for r in caplog.records] == [f"skipping bb_long.tokens: {LONG_ERROR}",
                                                        f"skipping bc_bad.tokens: {BAD_ERROR}"]
    expected, clean = build_corpus(good, records)
    assert (result.failed_files, clean.failed_files) == (2, 0)
    assert lines == expected and result.lines == clean.lines
    assert result.tension_thresholds == clean.tension_thresholds
    outs = []
    for scores in (mixed, good):
        outs.append(tmp_path / f"{scores.name}.txt")
        assert main(["corpus", "--scores", str(scores), "--annotations", str(ann),
                     "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
