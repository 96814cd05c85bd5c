"""Claim verification against a wiki-style corpus.

Pipeline: retrieve candidate evidence sentences (entity/title matching plus
hashed TF-IDF), score each candidate with support/refute/uninformative
probabilities, aggregate twelve per-claim features, classify with a random
forest, select evidence, and score predictions with FEVER-style metrics.
"""

__version__ = "0.1.0"

# Names that several modules share: the label set, and the flag defaults that
# the argument parser and the stage functions both use.  They live here, where
# importing them loads no numpy, so that neither the parser nor a stage that
# needs one loads another stage; ``tfidf`` re-exports DEFAULT_BIN_COUNT,
# ``forest`` the other two and ``verdict`` NOT_ENOUGH_INFO.
LABELS = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")
NOT_ENOUGH_INFO = "NOT ENOUGH INFO"
DEFAULT_BIN_COUNT = 2**24  # hash bins of a TF-IDF index
DEFAULT_CLASS_COUNTS = (3000, 3000, 4000)  # training claims per class, in label order
