"""Faithful abstractive summarization via overlapping sliding windows,
lexical DBSCAN clustering, and majority voting."""
