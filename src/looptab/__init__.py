"""Emotion-annotated loop corpora, conditional generation and evaluation
for symbolic guitar tablature."""

__version__ = "0.1.0"
