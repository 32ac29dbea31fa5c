"""Listening-test survey summaries.

A response row names a participant, a group, a question and an answer.
The binary questions take y/yes/n/no (``heard``) and human/machine
(``composer``), case aside; the Likert ones take integers 1..7, recoded
to -3..3. This module imports no numpy, so ``looptab survey`` loads none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .atomic import read_csv

LIKERT_QUESTIONS = ("preference", "loop", "emotion")
# Each binary question's answers: True for heard and for human.
BINARY_QUESTIONS = {"heard": {"y": True, "yes": True, "n": False, "no": False},
                    "composer": {"human": True, "machine": False}}


class SurveyError(ValueError):
    pass


def likert_to_signed(answer: int) -> int:
    """7-point Likert recoded to -3..3 with the neutral answer at 0."""
    if not 1 <= answer <= 7:
        raise SurveyError(f"Likert answer {answer} outside 1..7")
    return answer - 4


@dataclass
class SurveySummary:
    heard_pct: dict[str, float] = field(default_factory=dict)
    not_heard_pct: dict[str, float] = field(default_factory=dict)
    human_pct: dict[str, float] = field(default_factory=dict)
    machine_pct: dict[str, float] = field(default_factory=dict)
    likert_means: dict[str, dict[str, float]] = field(default_factory=dict)  # group -> question -> mean
    emotion_by_target: dict[str, dict[str, float]] = field(default_factory=dict)  # group -> HES/SES

    def as_dict(self) -> dict:
        return {
            "format": "looptab-survey-report",
            "version": 1,
            "heard_pct": self.heard_pct,
            "not_heard_pct": self.not_heard_pct,
            "human_pct": self.human_pct,
            "machine_pct": self.machine_pct,
            "likert_means": self.likert_means,
            "emotion_by_target": self.emotion_by_target,
        }


def _answer(row: dict) -> bool | int:
    """A response row's answer: a binary one as its truth value, a Likert
    one recoded to -3..3; an unknown question, a binary answer that is not
    one of its question's or a Likert answer that is no integer in 1..7
    raises ``ValueError``."""
    question, answer = row["question"], row["answer"]
    if question in BINARY_QUESTIONS:
        answers = BINARY_QUESTIONS[question]
        try:
            return answers[str(answer).strip().casefold()]
        except KeyError:
            raise SurveyError(f"{question} answer {answer!r} is not one of "
                              f"{', '.join(answers)}") from None
    if question not in LIKERT_QUESTIONS:
        raise SurveyError(f"unknown question {question!r}")
    return likert_to_signed(int(answer))


def survey_summary(rows: Sequence[dict]) -> SurveySummary:
    """Summarize listening-test responses.

    Rows need participant, group, question and answer fields; an optional
    target field (happy/sad) splits the emotion question into HES/SES.
    Binary questions accept y/yes/n/no and human/machine, case aside;
    Likert answers are integers 1..7 mapped to -3..3.
    """
    summary = SurveySummary()
    binary: dict[tuple[str, str], list[bool]] = {}
    likert: dict[tuple[str, str], list[int]] = {}
    emotion_t: dict[tuple[str, str], list[int]] = {}

    for lineno, row in enumerate(rows, start=2):
        try:
            value = _answer(row)
        except ValueError as exc:
            raise SurveyError(f"row {lineno}: {exc}") from None
        group, question = row["group"], row["question"]
        if question in BINARY_QUESTIONS:
            binary.setdefault((group, question), []).append(value)
        else:
            likert.setdefault((group, question), []).append(value)
            if question == "emotion":
                target = str(row.get("target", "")).strip().lower()
                if target in ("happy", "sad"):
                    emotion_t.setdefault((group, target), []).append(value)

    for (group, question), answers in binary.items():
        n, yes = len(answers), sum(answers)
        if question == "heard":
            summary.heard_pct[group] = 100.0 * yes / n
            summary.not_heard_pct[group] = 100.0 * (n - yes) / n
        else:
            summary.human_pct[group] = 100.0 * yes / n
            summary.machine_pct[group] = 100.0 * (n - yes) / n
    for (group, question), values in likert.items():
        summary.likert_means.setdefault(group, {})[question] = sum(values) / len(values)
    for (group, target), values in emotion_t.items():
        key = "HES" if target == "happy" else "SES"
        summary.emotion_by_target.setdefault(group, {})[key] = sum(values) / len(values)
    return summary


def _answered(row: dict) -> dict:
    _answer(row)  # raises on a bad answer
    return row


def load_survey_csv(path) -> list[dict]:
    """The response rows of a survey CSV; a bad header names the file, and
    a row short of a required field, a bad answer (as
    :func:`survey_summary` checks it) or a CSV error raises
    :class:`SurveyError` naming the file and line."""
    rows = [row for _, row in read_csv(path, ("participant", "group", "question", "answer"),
                                       "survey", _answered, SurveyError)]
    if not rows:
        raise SurveyError(f"{path}: no responses")
    return rows
