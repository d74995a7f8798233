"""Output checks made apart from the program.

Each checker reads an artifact as text, recomputes what it can with plain
numpy from the inputs, and tests properties the method must have rather
than comparing with a stored copy of earlier output.  A checker returns
``(attempted, failed, problems)``: ``failed`` counts the operations the
program itself reported as failed, and ``problems`` lists every independent
check that did not hold for an operation the program reported as passed.
``perturb_*`` make a damaged copy of an artifact; the worker runs the
checker on it once per run and requires it to be rejected.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np

# dyadic constants hold exactly in real arithmetic; the grid sums round
REL_EPS = 1e-12


# ---------------------------------------------------------------------------
# lp-sweep: ratios.csv


def _violations(stdout):
    """Corpus ids whose p = 2 block identity the CLI reported as violated."""
    return set(re.findall(r"p=2 identity violated for (\S+):", stdout))


def numpy_norm(data, p, cell_volume):
    """(sum |f|^p * cell volume)^(1/p) in plain numpy."""
    return float((np.abs(data) ** p).sum() * cell_volume) ** (1.0 / p)


def check_sweep(csv_text, stdout, corpus, p_list, identity_tol):
    """Check one ratios.csv against its corpus.

    Every row: norm_f equals the numpy L_p norm of the corpus member.  At
    p = 2 the projector is orthogonal, so ratio^2 + tail_rel^2 = 1
    (Pythagoras for E_K f and f - E_K f), every product sign operator has
    the norm of the square function (sign_ratio_max = ratio), and a member
    of the level-K span has ratio 1 within 1e-6.
    """
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    expected = [(fid, float(p)) for fid, _ in corpus for p in p_list]
    got = [(r["function_id"], float(r["p"])) for r in rows]
    if got != expected:
        return len(expected), 0, [f"rows {got[:3]}... != corpus x p list"]
    members = dict(corpus)
    violated = _violations(stdout)
    failed, problems = 0, []
    for r in rows:
        fid, p = r["function_id"], float(r["p"])
        if r["status"] != "ok" or (p == 2.0 and fid in violated):
            failed += 1
            continue
        f = members[fid]
        ratio, tail = float(r["ratio"]), float(r["tail_rel"])
        nf = numpy_norm(f.data, p, f.cell_volume)
        if abs(float(r["norm_f"]) - nf) > REL_EPS * nf:
            problems.append(f"{fid} p={p}: norm_f {r['norm_f']} != numpy {nf!r}")
        if p != 2.0:
            continue
        pyth = abs(ratio * ratio + tail * tail - 1.0)
        if pyth > identity_tol:
            problems.append(f"{fid}: ratio^2 + tail_rel^2 - 1 = {pyth:.3e}")
        sign = abs(float(r["sign_ratio_max"]) - ratio)
        if sign > identity_tol * ratio:
            problems.append(f"{fid}: sign_ratio_max - ratio = {sign:.3e}")
        if fid.startswith("block-") and abs(ratio - 1.0) > 1e-6:
            problems.append(f"{fid}: block ratio {ratio!r} != 1")
    return len(rows), failed, problems


def perturb_sweep(csv_text):
    """Raise tail_rel of the first p = 2 row by 1e-3."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    head = rows[0]
    for row in rows[1:]:
        if float(row[head.index("p")]) == 2.0:
            i = head.index("tail_rel")
            row[i] = repr(float(row[i]) + 1e-3)
            break
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# identities: identities.txt

_IDENTITY_LINE = re.compile(
    r"^(\S+): (PASS|FAIL) residual=(\S+) tolerance=(\S+)$")
_IDENTITY_TOTAL = re.compile(r"^checks = (\d+), failures = (\d+)$")


def check_identities(text, expected_checks):
    """Every reported residual is at most its tolerance, and all are there."""
    lines = text.splitlines()
    total = _IDENTITY_TOTAL.match(lines[-1]) if lines else None
    parsed = [_IDENTITY_LINE.match(line) for line in lines[:-1]]
    if total is None or not all(parsed) or len(parsed) != expected_checks:
        return expected_checks, 0, ["identities.txt is incomplete"]
    failed, problems = 0, []
    for m in parsed:
        name, status = m.group(1), m.group(2)
        residual, tol = float(m.group(3)), float(m.group(4))
        if status == "FAIL":
            failed += 1
        elif not residual <= tol:
            problems.append(f"{name}: residual {residual:.3e} > {tol:.1e}")
    if (int(total.group(1)), int(total.group(2))) != (len(parsed), failed):
        problems.append(f"summary line {lines[-1]!r} disagrees with the rows")
    return len(parsed), failed, problems


def perturb_identities(text):
    """Give the first check a residual ten times its tolerance."""
    lines = text.splitlines()
    m = _IDENTITY_LINE.match(lines[0])
    tol = float(m.group(4))
    lines[0] = (f"{m.group(1)}: PASS residual={10 * tol:.6e} "
                f"tolerance={m.group(4)}")
    return "\n".join(lines) + "\n"


def block_means(data, axis, block):
    """Each run of `block` cells along `axis` replaced by its mean."""
    moved = np.moveaxis(data, axis, -1)
    shape = moved.shape
    means = moved.reshape(shape[:-1] + (shape[-1] // block, block)).mean(-1)
    return np.moveaxis(np.repeat(means, block, axis=-1), -1, axis)


def embedded_difference(a, a_origin, b, b_origin):
    """max |a - b| after zero-extending both onto their union box."""
    lo = [min(x, y) for x, y in zip(a_origin, b_origin)]
    hi = [max(x + n, y + m) for x, n, y, m
          in zip(a_origin, a.shape, b_origin, b.shape)]
    diff = np.zeros([h - l for l, h in zip(lo, hi)], dtype=np.complex128)
    diff[tuple(slice(o - l, o - l + n)
               for o, l, n in zip(a_origin, lo, a.shape))] += a
    diff[tuple(slice(o - l, o - l + n)
               for o, l, n in zip(b_origin, lo, b.shape))] -= b
    return float(np.abs(diff).max())


# ---------------------------------------------------------------------------
# cz: cz-<tag>.txt and cz-<tag>-cubes.csv


def numpy_cz_cubes(data, origin, depth, alpha):
    """Stopping-time cube set of real cell values, scale by scale.

    The root [-2^m, 2^m) is the smallest one covering the support whose
    average of |f| is at most alpha.  At each scale a dyadic interval is
    selected when its average exceeds alpha and no coarser interval
    containing it was selected; all intervals of one scale are handled in
    one vectorized step.  Returns ({(scale, index)}, prefix sums of |f|).
    """
    absf = np.abs(data)
    n = absf.size
    cell = 2.0 ** (-depth)
    prefix = np.concatenate([[0.0], np.cumsum(absf)]) * cell
    total = float(absf.sum()) * cell
    m = 0
    while -(1 << m) << depth > origin or origin + n > (1 << m) << depth:
        m += 1
    while total / 2.0 ** (m + 1) > alpha:
        m += 1
    selected = set()
    closed, first = None, None
    for scale in range(-m, depth + 1):
        span = 1 << (depth - scale)
        lo, hi = origin // span, (origin + n - 1) // span
        index = np.arange(lo, hi + 1)
        a = np.clip(index * span - origin, 0, n)
        b = np.clip((index + 1) * span - origin, 0, n)
        avg = (prefix[b] - prefix[a]) / 2.0 ** (-scale)
        blocked = (np.zeros(index.size, dtype=bool) if closed is None
                   else closed[(index >> 1) - first])
        pick = ~blocked & (avg > alpha)
        selected.update((scale, int(i)) for i in index[pick])
        closed, first = blocked | pick, lo
    return selected, prefix


def check_cz(report_text, cubes_csv_text, f, alpha):
    """One decomposition: failed if the program says so, else cz_problems."""
    if report_text.startswith("degenerate") or "FAIL" in report_text:
        return 1, 1, []
    return 1, 0, cz_problems(report_text, cubes_csv_text, f, alpha)


def cz_problems(report_text, cubes_csv_text, f, alpha):
    """Check one decomposition against an independent numpy selection.

    The cube set equals the numpy stopping-time set, and from f: every
    cube has alpha < average |f| <= 2 alpha, |W| <= ||f||_1 / alpha, and
    |f| <= alpha off W.
    """
    data = f.data.real
    origin, depth, n = f.origin[0], f.depth, f.data.size
    cubes = [(int(r["scale"]), int(r["index"]))
             for r in csv.DictReader(io.StringIO(cubes_csv_text))]
    problems = []
    m = re.search(r"^cubes = (\d+)$", report_text, re.M)
    if m is None or int(m.group(1)) != len(cubes):
        problems.append("report cube count != cubes.csv rows")
    expected, prefix = numpy_cz_cubes(data, origin, depth, alpha)
    if set(cubes) != expected or len(cubes) != len(expected):
        problems.append(f"alpha={alpha}: {len(cubes)} cubes, numpy selects "
                        f"{len(expected)} ({len(set(cubes) ^ expected)} differ)")
    mes_w = 0.0
    on_w = np.zeros(n, dtype=bool)
    for scale, index in cubes:
        span = 1 << (depth - scale)
        a = min(max(index * span - origin, 0), n)
        b = min(max((index + 1) * span - origin, 0), n)
        width = 2.0 ** (-scale)
        avg = (prefix[b] - prefix[a]) / width
        if not alpha * (1 - REL_EPS) < avg <= 2 * alpha * (1 + REL_EPS):
            problems.append(f"cube ({scale},{index}): average {avg!r} "
                            f"outside (alpha, 2 alpha]")
        mes_w += width
        on_w[a:b] = True
    norm1 = prefix[-1]
    if mes_w > norm1 / alpha * (1 + REL_EPS):
        problems.append(f"|W| = {mes_w!r} > ||f||_1 / alpha = {norm1 / alpha!r}")
    off = np.abs(data[~on_w])
    if off.size and off.max() > alpha * (1 + REL_EPS):
        problems.append(f"|f| = {off.max()!r} > alpha off W")
    return problems


def perturb_cz_cubes(cubes_csv_text):
    """Drop the last selected cube."""
    lines = cubes_csv_text.splitlines(keepends=True)
    return "".join(lines[:-1]) if len(lines) > 1 else cubes_csv_text
