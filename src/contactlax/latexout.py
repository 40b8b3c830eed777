"""LaTeX rendering in subscript notation, so emitted systems diff
cleanly against the published form."""

from __future__ import annotations

from fractions import Fraction

from .compat import CK_INDEPENDENTS, XYZT, PDESystem
from .jetalg import ONE, DiffPoly, JetQuotient, JetVariable, jet
from .laxfamilies import LaxPair, PoleSide
from .pfield import PRational


def _symbol(name: str) -> str:
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    if head == "psi":
        head = "\\psi"
    if head == "psi_tilde":
        head = "\\tilde\\psi"
    return f"{head}_{{{tail}}}" if tail else head


def jet_latex(jv: JetVariable, dirs=XYZT) -> str:
    sym = _symbol(jv.field.name)
    if jv.d == (0, 0, 0, 0):
        return sym
    sub = "".join(dirs[ax] * k for ax, k in enumerate(jv.d))
    if "_" in sym:
        return f"({sym})_{{{sub}}}"
    return f"{sym}_{{{sub}}}"


def _frac_latex(c: Fraction) -> str:
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def poly_latex(e: DiffPoly, dirs=XYZT) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for c, factors in e.monomials():
        body = "\\,".join(
            jet_latex(jv, dirs) + (f"^{{{p}}}" if p > 1 else "") for jv, p in factors
        )
        if not body:
            term = _frac_latex(c)
        elif c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{_frac_latex(c)}\\,{body}"
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else f"+{t}"
    return out


def quotient_latex(q: JetQuotient, dirs=XYZT) -> str:
    if q.den == ONE:
        return poly_latex(q.num, dirs)
    return f"\\frac{{{poly_latex(q.num, dirs)}}}{{{poly_latex(q.den, dirs)}}}"


def prational_latex(r: PRational, var: str = "p", pole_side: PoleSide | None = None) -> str:
    """r as one fraction, or as the sum of its recorded poles if given."""
    def side(pp):
        if pp.is_zero():
            return "0"
        parts = []
        for k in range(pp.degree(), -1, -1):
            c = pp[k]
            if c.is_zero():
                continue
            pk = "" if k == 0 else (var if k == 1 else f"{var}^{{{k}}}")
            cs = quotient_latex(c)
            parts.append(f"\\left({cs}\\right){pk}" if pk else f"\\left({cs}\\right)")
        return "+".join(parts)

    if pole_side is not None:
        const, pairs = pole_side
        parts = [f"\\left({poly_latex(jet(const))}\\right)"] if const else []
        parts += [f"\\frac{{{poly_latex(jet(res))}}}{{{var}-{_symbol(pole.name)}}}" for res, pole in pairs]
        return "+".join(parts) or "0"
    num, den = r.num, r.den
    if den.degree() == 0 and not den.is_zero():
        return side(num)
    return f"\\frac{{{side(num)}}}{{{side(den)}}}"


def system_latex(sys: PDESystem) -> str:
    dirs = CK_INDEPENDENTS if sys.independents[:1] == CK_INDEPENDENTS[:1] else XYZT
    lines = [f"{quotient_latex(eq, dirs)} = 0" for eq in sys.equations]
    body = ", \\\\\n".join(lines)
    return "\\begin{array}{l}\n" + body + "\n\\end{array}"


def laxpair_latex(lax: LaxPair) -> str:
    var = "\\psi_x" if lax.dimension == "2+1" else "p"
    f, g = (prational_latex(r, var, ps) for r, ps in zip((lax.F, lax.G), lax.pole_data or (None, None)))
    if lax.dimension == "2+1":
        return f"\\psi_y = {f}, \\qquad \\psi_t = {g}"
    return (
        f"\\psi_y = \\psi_z\\,F(\\psi_x/\\psi_z), \\quad F = {f}, \\\\\n"
        f"\\psi_t = \\psi_z\\,G(\\psi_x/\\psi_z), \\quad G = {g}"
    )
