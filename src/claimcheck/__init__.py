"""Claim verification against a wiki-style corpus.

Pipeline: retrieve candidate evidence sentences (entity/title matching plus
hashed TF-IDF), score each candidate with support/refute/uninformative
probabilities, aggregate twelve per-claim features, classify with a random
forest, select evidence, and score predictions with FEVER-style metrics.
"""

__version__ = "0.1.0"

# Defaults of the command line's flags and of the stage functions alike.  They
# live here, where importing them loads no numpy, so that the argument parser
# needs no stage module; ``tfidf`` and ``forest`` re-export them.
DEFAULT_BIN_COUNT = 2**24  # hash bins of a TF-IDF index
DEFAULT_CLASS_COUNTS = (3000, 3000, 4000)  # training claims per class, in label order
