"""Tiny on-disk experiment worlds shared across test modules."""

import json

AA_TRAIN = """\
ada\tB-PER
visited\tO
oslo\tB-LOC

acme\tB-ORG
corp\tI-ORG
hired\tO
ada\tB-PER

bo\tB-PER
left\tO
lima\tB-LOC

nothing\tO
here\tO
"""

AA_TEST = """\
ada\tB-PER
saw\tO
lima\tB-LOC

oslo\tB-LOC
wins\tO
"""

BB_TRAIN = """\
kofi\tB-PER
runs\tO
accra\tB-LOC

umoja\tB-ORG
group\tI-ORG
took\tO
kofi\tB-PER

abena\tB-PER
sees\tO
kumasi\tB-LOC

quiet\tO
day\tO
"""

BB_TEST = """\
kofi\tB-PER
met\tO
accra\tB-LOC

kumasi\tB-LOC
grows\tO
"""

METADATA = """\
code,script,family,train_size,pretrain_pct
aa,Latin,Fam1,4,0.1
bb,Latin,Fam1,4,0.1
"""

# a learning rate this large drives the world's tagger to NaN within a
# few steps
DIVERGING_TAGGER = {
    "embed_dim": 4, "hidden_dim": 6, "learning_rate": 1e4,
    "epochs": 10, "batch_size": 2,
}


def write_world(root, mode="monolingual", sparsity_levels=(0, 50),
                schedule=(2, 10, 2), extra=None):
    """Materialize two 4-sentence languages plus a config file under root.

    Returns the config path. The config uses relative paths, so moving
    the directory keeps it valid.
    """
    corpus = root / "corpus"
    for lang, train, test in (("aa", AA_TRAIN, AA_TEST), ("bb", BB_TRAIN, BB_TEST)):
        (corpus / lang).mkdir(parents=True, exist_ok=True)
        (corpus / lang / "train.iob2").write_text(train)
        (corpus / lang / "test.iob2").write_text(test)
    (root / "languages.csv").write_text(METADATA)
    data = {
        "mode": mode,
        "languages": ["aa", "bb"],
        "sparsity_levels": list(sparsity_levels),
        "strategies": ["partial"],
        "seeds": [0],
        "scopes": ["in-language"],
        "perturbation_seed": 7,
        "tagger": {
            "embed_dim": 4, "hidden_dim": 6, "learning_rate": 0.3,
            "epochs": 10, "batch_size": 2,
        },
        "schedule_table": {"4": list(schedule)},
        "paths": {
            "corpus_root": "corpus",
            "metadata": "languages.csv",
            "output": "out",
        },
    }
    if extra:
        data.update(extra)
    path = root / "config.json"
    path.write_text(json.dumps(data, indent=2))
    return path


def trace_without_timing(path):
    """The lines of a run's trace.jsonl, as text, but its timing line,
    the only one that varies between runs of one config."""
    lines = path.read_text().splitlines(keepends=True)
    assert json.loads(lines[-1])["kind"] == "timing"
    return lines[:-1]
