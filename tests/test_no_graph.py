"""Forwards that train nothing build no autodiff graph.

Loaded, initialised and expanded models have `requires_grad` set on their
parameters, so a forward over the autodiff ops would record a backward
closure per op. Evaluation, calibration, the identity check, the cosine
analysis and decoding run on the raw kernels instead; here every Tensor
that an autodiff op creates with `requires_grad` is counted while they run.
"""

import numpy as np
import pytest

from familykit import tensor
from familykit.compression import capture_activations
from familykit.evaluation import branch_perplexity
from familykit.expansion import ExpansionSpec, expand, layer_cosine_similarity, verify_identity
from familykit.inference import ExitPolicy, generate
from familykit.model import desk_config, forward_branch, init_model, named_parameters


@pytest.fixture()
def graph_nodes(monkeypatch) -> list:
    nodes = []
    make = tensor._make

    def counted(data, parents, bwd):
        out = make(data, parents, bwd)
        if out.requires_grad:
            nodes.append(out)
        return out

    monkeypatch.setattr(tensor, "_make", counted)
    return nodes


def test_no_grad_paths_build_no_graph(graph_nodes):
    model = init_model(desk_config(), seed=5)
    assert all(p.requires_grad for _, p in named_parameters(model))
    grown, _ = expand(model, ExpansionSpec(target_branch=0, seed=1))
    rng = np.random.default_rng(6)
    ids = rng.integers(0, 256, 300)
    tokens = rng.integers(0, 256, (3, 16))

    # the counter sees a forward that does build a graph
    forward_branch(model, tokens, 1)
    assert graph_nodes
    graph_nodes.clear()

    paths = {
        "branch_perplexity": lambda: branch_perplexity(grown, ids, 0, window=32),
        "capture_activations": lambda: capture_activations(grown, tokens, lambda name: True),
        "verify_identity": lambda: verify_identity(model, grown, tokens, 0),
        "layer_cosine_similarity": lambda: layer_cosine_similarity(grown, tokens[0]),
        "generate": lambda: generate(grown, [256, 5, 9], ExitPolicy(threshold=0.5), 6),
    }
    built = {}
    for name, run in paths.items():
        run()
        built[name] = len(graph_nodes)
        graph_nodes.clear()
    assert built == dict.fromkeys(paths, 0)
