"""Shared random-instance builders and brute-force oracles for the test suite."""

import json

import numpy as np

from sdpkit.graph import Edge, PartialGraph, SemanticGraph, SyntacticTree, Token, is_acyclic

LABELS = ("ACT-arg", "PAT-arg", "RSTR", "APP", "TWHEN", "NE")
DEPRELS = ("root", "nsubj", "obj", "nmod", "amod")
FORMS = ("rok", "zprava", "stanovuje", "priority", "jine", "evropa", "znat", "k")
POS = ("N", "V", "J", "R")


def random_sentence(rng: np.random.Generator, n: int,
                    frames: bool = True) -> tuple[Token, ...]:
    return tuple(
        Token(j + 1,
              str(rng.choice(FORMS)),
              str(rng.choice(FORMS)),
              str(rng.choice(POS)),
              f"f{int(rng.integers(9))}" if frames and rng.random() >= 0.7 else "")
        for j in range(n))


def random_graph(rng: np.random.Generator, n: int | None = None,
                 max_n: int = 12, acyclic: bool = False) -> SemanticGraph:
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    sentence = random_sentence(rng, n)
    edges = set()
    for j in range(1, n + 1):
        if rng.random() < 0.25:
            edges.add(Edge(0, j, "TOP"))
    cells = [(h, d) for h in range(1, n + 1) for d in range(1, n + 1)
             if h != d and (not acyclic or h < d)]
    for h, d in cells:
        if rng.random() < 0.2:
            edges.add(Edge(h, d, str(rng.choice(LABELS))))
    return SemanticGraph(sentence, frozenset(edges))


def random_partial(rng: np.random.Generator, n: int | None = None,
                   max_n: int = 12) -> PartialGraph:
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    aligned = {j for j in range(1, n + 1) if rng.random() < 0.7}
    sentence = random_sentence(rng, n)
    edges = set()
    for j in sorted(aligned):
        if rng.random() < 0.25:
            edges.add(Edge(0, j, "TOP"))
    for h in sorted(aligned):
        for d in sorted(aligned):
            if h < d and rng.random() < 0.2:  # forward edges keep the graph writable
                edges.add(Edge(h, d, str(rng.choice(LABELS))))
    return PartialGraph(SemanticGraph(sentence, frozenset(edges)), frozenset(aligned))


def random_tree(rng: np.random.Generator, n: int | None = None,
                max_n: int = 12) -> SyntacticTree:
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    sentence = random_sentence(rng, n, frames=False)  # CoNLL-U has no frame column
    order = rng.permutation(n) + 1
    rank = {int(tok): r for r, tok in enumerate(order)}
    heads = []
    deprels = []
    for j in range(1, n + 1):
        if rank[j] == 0:
            heads.append(0)
            deprels.append("root")
        else:
            candidates = [c for c in range(1, n + 1) if rank[c] < rank[j]]
            heads.append(int(rng.choice(candidates)))
            deprels.append(str(rng.choice(DEPRELS[1:])))
    comments = (f"# sent_id = {int(rng.integers(10000))}",) if rng.random() < 0.5 else ()
    return SyntacticTree(sentence, tuple(heads), tuple(deprels), comments)


def write_context_vectors(sentences, stream):
    """Per-token context vectors in the `.vec` text format `read_context_vectors` reads."""
    for i, mat in enumerate(sentences):
        if i:
            stream.write("\n")
        for row in np.asarray(mat):
            stream.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_checkpoint(path) -> tuple[dict, dict]:
    """The named arrays and the metadata of a checkpoint, read with plain numpy."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return arrays, json.loads(arrays.pop("__meta__").tobytes().decode("utf-8"))


def write_checkpoint(path, arrays: dict, meta):
    """Write `meta` as JSON and `arrays` in the layout of `ParserModel.save`."""
    payload = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __meta__=payload, **arrays)


def random_alignment_links(rng: np.random.Generator, m: int, n: int,
                           p: float = 0.4) -> frozenset:
    links = set()
    for s in range(1, m + 1):
        if rng.random() < p and n >= 1:
            links.add((s, int(rng.integers(1, n + 1))))
    return frozenset(links)


def brute_force_project(source: SemanticGraph, mapping: dict[int, int],
                        target_sentence) -> PartialGraph:
    """Cell-by-cell enumeration oracle for project_graph."""
    n = len(target_sentence)
    m = source.n
    label_at = {(h, d): l for h, d, l in source.edges}
    edges = set()
    for i in range(0, m + 1):
        for j in range(1, m + 1):
            if (i, j) not in label_at:
                continue
            ai = 0 if i == 0 else mapping.get(i)
            aj = mapping.get(j)
            if ai is None or aj is None:
                continue
            edges.add(Edge(ai, aj, label_at[(i, j)]))
    aligned = frozenset({0} | set(mapping.values()))
    return PartialGraph(SemanticGraph(tuple(target_sentence), frozenset(edges)), aligned)


def brute_force_score(predicted, gold):
    """Set-intersection oracle returning the six scorer counts."""
    lg = lp = lc = ug = up = uc = 0
    for p, g in zip(predicted, gold):
        pl = {(h, d, l) for h, d, l in p.edges}
        gl = {(h, d, l) for h, d, l in g.edges}
        pu = {(h, d) for h, d, _ in p.edges}
        gu = {(h, d) for h, d, _ in g.edges}
        lg += len(gl)
        lp += len(pl)
        lc += len(pl & gl)
        ug += len(gu)
        up += len(pu)
        uc += len(pu & gu)
    return lg, lp, lc, ug, up, uc


# ---------------------------------------------------------------------------
# reference kernels: the straightforward per-step / einsum / textbook forms
# that the fused autodiff kernels must reproduce


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_lstm_seq(x, w, u, b, g):
    """Per-step LSTM forward and BPTT with one outer product per step.

    Takes plain arrays and the upstream gradient `g` (T, H); returns
    (out, dx, dw, du, db).
    """
    steps, hidden = x.shape[0], u.shape[0]
    gi, gf, gc, go, cell, tc, out = (np.empty((steps, hidden)) for _ in range(7))
    pre = x @ w + b
    h_prev = np.zeros(hidden)
    c_prev = np.zeros(hidden)
    for t in range(steps):
        z = pre[t] + h_prev @ u
        gi[t] = reference_sigmoid(z[:hidden])
        gf[t] = reference_sigmoid(z[hidden:2 * hidden])
        gc[t] = np.tanh(z[2 * hidden:3 * hidden])
        go[t] = reference_sigmoid(z[3 * hidden:])
        cell[t] = gf[t] * c_prev + gi[t] * gc[t]
        tc[t] = np.tanh(cell[t])
        out[t] = go[t] * tc[t]
        h_prev = out[t]
        c_prev = cell[t]

    dw, du, db, dx = np.zeros_like(w), np.zeros_like(u), np.zeros_like(b), np.zeros_like(x)
    dh = np.zeros(hidden)
    dc = np.zeros(hidden)
    dz = np.empty(4 * hidden)
    for t in range(steps - 1, -1, -1):
        dht = g[t] + dh
        c_in = cell[t - 1] if t > 0 else np.zeros(hidden)
        h_in = out[t - 1] if t > 0 else np.zeros(hidden)
        do = dht * tc[t]
        dct = dc + dht * go[t] * (1.0 - tc[t] * tc[t])
        dz[:hidden] = dct * gc[t] * gi[t] * (1.0 - gi[t])
        dz[hidden:2 * hidden] = dct * c_in * gf[t] * (1.0 - gf[t])
        dz[2 * hidden:3 * hidden] = dct * gi[t] * (1.0 - gc[t] * gc[t])
        dz[3 * hidden:] = do * go[t] * (1.0 - go[t])
        dw += np.outer(x[t], dz)
        du += np.outer(h_in, dz)
        db += dz
        dx[t] = dz @ w.T
        dh = dz @ u.T
        dc = dct * gf[t]
    return out, dx, dw, du, db


def reference_bilinear(x, w, y, g):
    """einsum bilinear x W y^T with its gradients; returns (out, dx, dw, dy)."""
    squeeze = w.ndim == 2
    w3 = w[None] if squeeze else w
    g3 = g[None] if squeeze else g
    out = np.einsum("nd,lde,me->lnm", x, w3, y, optimize=True)
    dx = np.einsum("lnm,lde,me->nd", g3, w3, y, optimize=True)
    dw = np.einsum("lnm,nd,me->lde", g3, x, y, optimize=True)
    dy = np.einsum("lnm,nd,lde->me", g3, x, w3, optimize=True)
    return (out[0] if squeeze else out), dx, (dw[0] if squeeze else dw), dy


def reference_adam_step(params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam over `Parameter`s, allocating per step."""
    for p in params:
        if p.grad is None:
            continue
        p.step += 1
        g = p.grad
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * (g * g)
        m_hat = p.m / (1.0 - beta1 ** p.step)
        v_hat = p.v / (1.0 - beta2 ** p.step)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad = None


def reference_folded_adam_step(params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with the bias corrections folded into the step size, allocating per step.

    `m` and `v` hold the unnormalised sums M = b1 M + g and V = b2 V + g^2;
    with k = sqrt((1-b2) / (1-b2^t)) and a = lr (1-b1) / ((1-b1^t) k) the
    update is a M / (sqrt(V) + eps / k), the same operations in the same
    order as `autodiff.adam_step`."""
    for p in params:
        if p.grad is None:
            continue
        p.step += 1
        g = p.grad
        p.m = beta1 * p.m + g
        p.v = beta2 * p.v + g * g
        k = np.sqrt((1.0 - beta2) / (1.0 - beta2 ** p.step))
        alpha = lr * (1.0 - beta1) / ((1.0 - beta1 ** p.step) * k)
        p.data -= alpha * (p.m / (np.sqrt(p.v) + eps / k))
        p.grad = None


def reference_decode_semantic(s_edge, s_label, labels, sentence):
    """Cell-by-cell sign decoding: training.decode_semantic without its acyclic repair."""
    sentence = tuple(sentence)
    n = len(sentence)
    label_scores = np.array(s_label, dtype=float)
    if "TOP" in labels and len(labels) > 1:
        label_scores[labels.id("TOP")] = -np.inf
    best = label_scores.argmax(axis=0)
    edges = []
    for i in range(n + 1):
        for j in range(1, n + 1):
            if i == j or s_edge[i, j - 1] < 0:
                continue
            label = "TOP" if i == 0 else labels.items[best[i, j - 1]]
            edges.append(Edge(i, j, label))
    return SemanticGraph(sentence, frozenset(edges))


def reference_acyclic_decode(s_edge, s_label, labels, sentence):
    """`reference_decode_semantic`, repaired by brute force when it is cyclic:
    its edges in descending score, ties by head and then by dependent, each
    kept iff the graph of the edges kept so far stays acyclic."""
    sign = reference_decode_semantic(s_edge, s_label, labels, sentence)
    if is_acyclic(sign):
        return sign
    kept = set()
    for e in sorted(sign.edges, key=lambda e: (-s_edge[e.head, e.dependent - 1],
                                               e.head, e.dependent)):
        if is_acyclic(SemanticGraph(sign.sentence, frozenset(kept | {e}))):
            kept.add(e)
    return SemanticGraph(sign.sentence, frozenset(kept))
