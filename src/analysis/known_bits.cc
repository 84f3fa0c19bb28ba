#include "analysis/known_bits.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>

namespace bvf::analysis
{

namespace
{

constexpr Word64 wordSpan = Word64(1) << 32;

/** Bit @p i of an abstract word as a three-valued boolean. */
Bool3
bitOf(const KnownBits &a, int i)
{
    const Word mask = Word(1) << i;
    if (a.knownOne & mask)
        return Bool3::True;
    if (a.knownZero & mask)
        return Bool3::False;
    return Bool3::Unknown;
}

Bool3
xor3(Bool3 a, Bool3 b)
{
    if (a == Bool3::Unknown || b == Bool3::Unknown)
        return Bool3::Unknown;
    return a == b ? Bool3::False : Bool3::True;
}

/** Majority of three; known as soon as two inputs agree. */
Bool3
maj3(Bool3 a, Bool3 b, Bool3 c)
{
    int trues = (a == Bool3::True) + (b == Bool3::True) + (c == Bool3::True);
    int falses = (a == Bool3::False) + (b == Bool3::False)
                 + (c == Bool3::False);
    if (trues >= 2)
        return Bool3::True;
    if (falses >= 2)
        return Bool3::False;
    return Bool3::Unknown;
}

KnownBits
applyBit(KnownBits kb, int i, Bool3 v)
{
    const Word mask = Word(1) << i;
    if (v == Bool3::True)
        kb.knownOne |= mask;
    else if (v == Bool3::False)
        kb.knownZero |= mask;
    return kb;
}

/**
 * Ripple-carry sum of two abstract words with an abstract carry-in; the
 * shared core of kbAdd (carry False) and kbSub (b inverted, carry True).
 */
KnownBits
rippleSum(const KnownBits &a, const KnownBits &b, bool invertB, Bool3 carry)
{
    KnownBits out;
    for (int i = 0; i < 32; ++i) {
        Bool3 ai = bitOf(a, i);
        Bool3 bi = bitOf(b, i);
        if (invertB)
            bi = not3(bi);
        out = applyBit(out, i, xor3(xor3(ai, bi), carry));
        carry = maj3(ai, bi, carry);
    }
    return out;
}

/** Can some value in [lo, hi] leave residue @p s modulo 32? */
bool
rangeAllowsResidue(Word lo, Word hi, int s)
{
    if (Word64(hi) - Word64(lo) >= 31)
        return true;
    for (Word64 v = lo; v <= hi; ++v)
        if ((v & 31u) == Word64(s))
            return true;
    return false;
}

enum class SignClass
{
    NonNeg,
    Neg,
    Mixed,
};

SignClass
signClass(const KnownBits &a)
{
    if (a.hi < 0x80000000u)
        return SignClass::NonNeg;
    if (a.lo >= 0x80000000u)
        return SignClass::Neg;
    return SignClass::Mixed;
}

/**
 * Signed a < b, exploiting that unsigned interval order equals signed
 * order whenever both sides share a sign class.
 */
Bool3
ltSigned(const KnownBits &a, const KnownBits &b)
{
    const SignClass sa = signClass(a);
    const SignClass sb = signClass(b);
    if (sa == SignClass::Mixed || sb == SignClass::Mixed)
        return Bool3::Unknown;
    if (sa == SignClass::Neg && sb == SignClass::NonNeg)
        return Bool3::True;
    if (sa == SignClass::NonNeg && sb == SignClass::Neg)
        return Bool3::False;
    if (a.hi < b.lo)
        return Bool3::True;
    if (a.lo >= b.hi)
        return Bool3::False;
    return Bool3::Unknown;
}

Bool3
eqAbstract(const KnownBits &a, const KnownBits &b)
{
    if (a.isConstant() && b.isConstant() && a.lo == b.lo)
        return Bool3::True;
    if ((a.knownOne & b.knownZero) | (a.knownZero & b.knownOne))
        return Bool3::False;
    if (a.hi < b.lo || b.hi < a.lo)
        return Bool3::False;
    return Bool3::Unknown;
}

} // namespace

KnownBits
KnownBits::constant(Word v)
{
    return {~v, v, v, v};
}

KnownBits
KnownBits::range(Word lo, Word hi)
{
    return KnownBits{0, 0, lo, hi}.normalized();
}

KnownBits
KnownBits::normalized() const
{
    KnownBits r = *this;
    for (int pass = 0; pass < 32; ++pass) {
        KnownBits prev = r;
        if (r.empty())
            return r;
        // Bit masks clamp the interval.
        r.lo = std::max(r.lo, r.knownOne);
        r.hi = std::min(r.hi, ~r.knownZero);
        if (r.lo > r.hi)
            return r;
        // Agreeing leading bits of the interval endpoints are known.
        const Word diff = r.lo ^ r.hi;
        const Word same = diff == 0
                              ? ~Word(0)
                              : (diff == 0xffffffffu
                                     ? 0
                                     : ~((Word(2) << (31 - leadingZeros(diff)))
                                        - 1));
        r.knownOne |= r.lo & same;
        r.knownZero |= ~r.lo & same;
        if (r == prev)
            break;
    }
    return r;
}

std::string
KnownBits::toString() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "[0x%x,0x%x] ", lo, hi);
    std::string s = buf;
    for (int i = 31; i >= 0; --i) {
        const Word mask = Word(1) << i;
        s += (knownOne & mask) ? '1' : (knownZero & mask) ? '0' : '?';
    }
    return s;
}

KnownBits
join(const KnownBits &a, const KnownBits &b)
{
    if (a.empty())
        return b;
    if (b.empty())
        return a;
    KnownBits r;
    r.knownZero = a.knownZero & b.knownZero;
    r.knownOne = a.knownOne & b.knownOne;
    r.lo = std::min(a.lo, b.lo);
    r.hi = std::max(a.hi, b.hi);
    return r.normalized();
}

KnownBits
widen(const KnownBits &prev, const KnownBits &next)
{
    if (next.lo >= prev.lo && next.hi <= prev.hi)
        return next;
    KnownBits w = next;
    w.lo = 0;
    w.hi = 0xffffffffu;
    return w.normalized();
}

KnownBits
kbAdd(const KnownBits &a, const KnownBits &b)
{
    KnownBits r = rippleSum(a, b, false, Bool3::False);
    const Word64 sumLo = Word64(a.lo) + b.lo;
    const Word64 sumHi = Word64(a.hi) + b.hi;
    if (sumHi < wordSpan) {
        r.lo = Word(sumLo);
        r.hi = Word(sumHi);
    } else if (sumLo >= wordSpan) {
        r.lo = Word(sumLo - wordSpan);
        r.hi = Word(sumHi - wordSpan);
    }
    return r.normalized();
}

KnownBits
kbSub(const KnownBits &a, const KnownBits &b)
{
    KnownBits r = rippleSum(a, b, true, Bool3::True);
    const std::int64_t difLo = std::int64_t(a.lo) - b.hi;
    const std::int64_t difHi = std::int64_t(a.hi) - b.lo;
    if (difLo >= 0) {
        r.lo = Word(difLo);
        r.hi = Word(difHi);
    } else if (difHi < 0) {
        r.lo = Word(difLo + std::int64_t(wordSpan));
        r.hi = Word(difHi + std::int64_t(wordSpan));
    }
    return r.normalized();
}

KnownBits
kbAnd(const KnownBits &a, const KnownBits &b)
{
    KnownBits r;
    r.knownZero = a.knownZero | b.knownZero;
    r.knownOne = a.knownOne & b.knownOne;
    r.lo = 0;
    r.hi = std::min(a.hi, b.hi); // x & y never exceeds either operand
    return r.normalized();
}

KnownBits
kbOr(const KnownBits &a, const KnownBits &b)
{
    KnownBits r;
    r.knownZero = a.knownZero & b.knownZero;
    r.knownOne = a.knownOne | b.knownOne;
    r.lo = std::max(a.lo, b.lo); // x | y never falls below either operand
    r.hi = 0xffffffffu;
    return r.normalized();
}

KnownBits
kbXor(const KnownBits &a, const KnownBits &b)
{
    KnownBits r;
    r.knownZero = (a.knownZero & b.knownZero) | (a.knownOne & b.knownOne);
    r.knownOne = (a.knownZero & b.knownOne) | (a.knownOne & b.knownZero);
    return r.normalized();
}

KnownBits
kbNot(const KnownBits &a)
{
    return KnownBits{a.knownOne, a.knownZero, ~a.hi, ~a.lo}.normalized();
}

KnownBits
kbShl(const KnownBits &a, const KnownBits &b)
{
    const Word fixed = b.knownOne & 31u;
    const Word mask5 = b.knownMask() & 31u;
    KnownBits out;
    bool any = false;
    for (int s = 0; s < 32; ++s) {
        if ((Word(s) & mask5) != fixed)
            continue;
        if (!rangeAllowsResidue(b.lo, b.hi, s))
            continue;
        KnownBits one;
        one.knownZero = (a.knownZero << s) | (s ? ((Word(1) << s) - 1) : 0);
        one.knownOne = a.knownOne << s;
        if ((Word64(a.hi) << s) < wordSpan) {
            one.lo = a.lo << s;
            one.hi = a.hi << s;
        }
        one = one.normalized();
        out = any ? join(out, one) : one;
        any = true;
    }
    return any ? out : KnownBits::top();
}

KnownBits
kbShr(const KnownBits &a, const KnownBits &b)
{
    const Word fixed = b.knownOne & 31u;
    const Word mask5 = b.knownMask() & 31u;
    KnownBits out;
    bool any = false;
    for (int s = 0; s < 32; ++s) {
        if ((Word(s) & mask5) != fixed)
            continue;
        if (!rangeAllowsResidue(b.lo, b.hi, s))
            continue;
        KnownBits one;
        one.knownZero = (a.knownZero >> s) | (s ? ~(0xffffffffu >> s) : 0);
        one.knownOne = a.knownOne >> s;
        one.lo = a.lo >> s;
        one.hi = a.hi >> s;
        one = one.normalized();
        out = any ? join(out, one) : one;
        any = true;
    }
    return any ? out : KnownBits::top();
}

KnownBits
kbMul(const KnownBits &a, const KnownBits &b)
{
    if (a.isConstant() && b.isConstant())
        return KnownBits::constant(a.lo * b.lo);
    KnownBits r;
    // Low bits of a product depend only on equally many low operand
    // bits, so the low min(ka, kb) bits are exact.
    const int ka = std::countr_one(a.knownMask());
    const int kb = std::countr_one(b.knownMask());
    const int k = std::min(ka, kb);
    if (k > 0) {
        const Word mask = k >= 32 ? ~Word(0) : (Word(1) << k) - 1;
        const Word low = (a.knownOne & mask) * (b.knownOne & mask);
        r.knownOne = low & mask;
        r.knownZero = ~low & mask;
    }
    // Trailing guaranteed zeros accumulate across factors.
    const int tz = std::min(31, std::countr_one(a.knownZero)
                                    + std::countr_one(b.knownZero));
    if (tz > 0)
        r.knownZero |= (Word(1) << tz) - 1;
    const Word64 pHi = Word64(a.hi) * b.hi;
    if (pHi < wordSpan) {
        r.lo = Word(Word64(a.lo) * b.lo);
        r.hi = Word(pHi);
    }
    return r.normalized();
}

KnownBits
kbClz(const KnownBits &a)
{
    // countl_zero is antitone in the value, so the interval endpoints
    // swap roles.
    return KnownBits::range(Word(leadingZeros(a.hi)),
                            Word(leadingZeros(a.lo)));
}

KnownBits
kbMinSigned(const KnownBits &a, const KnownBits &b)
{
    const SignClass sa = signClass(a);
    const SignClass sb = signClass(b);
    if (sa == SignClass::Neg && sb == SignClass::NonNeg)
        return a;
    if (sa == SignClass::NonNeg && sb == SignClass::Neg)
        return b;
    // The result is bitwise one of the operands, so the join is sound.
    KnownBits r = join(a, b);
    if (sa != SignClass::Mixed && sa == sb) {
        // Same sign class: unsigned interval order equals signed order.
        r.lo = std::min(a.lo, b.lo);
        r.hi = std::min(a.hi, b.hi);
        r = r.normalized();
    }
    return r;
}

KnownBits
kbMaxSigned(const KnownBits &a, const KnownBits &b)
{
    const SignClass sa = signClass(a);
    const SignClass sb = signClass(b);
    if (sa == SignClass::Neg && sb == SignClass::NonNeg)
        return b;
    if (sa == SignClass::NonNeg && sb == SignClass::Neg)
        return a;
    KnownBits r = join(a, b);
    if (sa != SignClass::Mixed && sa == sb) {
        r.lo = std::max(a.lo, b.lo);
        r.hi = std::max(a.hi, b.hi);
        r = r.normalized();
    }
    return r;
}

Bool3
kbCompare(isa::CmpOp cmp, const KnownBits &a, const KnownBits &b)
{
    switch (cmp) {
      case isa::CmpOp::Lt:
        return ltSigned(a, b);
      case isa::CmpOp::Le:
        return not3(ltSigned(b, a));
      case isa::CmpOp::Gt:
        return ltSigned(b, a);
      case isa::CmpOp::Ge:
        return not3(ltSigned(a, b));
      case isa::CmpOp::Eq:
        return eqAbstract(a, b);
      case isa::CmpOp::Ne:
        return not3(eqAbstract(a, b));
    }
    return Bool3::Unknown;
}

KnownBits
nvEncodeKnownBits(const KnownBits &a)
{
    constexpr Word body = 0x7fffffffu;
    constexpr Word sign = 0x80000000u;
    KnownBits r;
    if (a.knownZero & sign) {
        // Non-negative: body bits are inverted, sign bit stays 0.
        r.knownZero = (a.knownOne & body) | sign;
        r.knownOne = a.knownZero & body;
    } else if (a.knownOne & sign) {
        // Negative: body bits pass through, sign bit stays 1.
        r.knownZero = a.knownZero & body;
        r.knownOne = (a.knownOne & body) | sign;
    }
    // Sign unknown: every encoded bit depends on it, nothing is known.
    return r.normalized();
}

RatioBound
ratioBounds(const KnownBits &a)
{
    return {a.minOnes() / 32.0, a.maxOnes() / 32.0};
}

RatioBound
nvRatioBounds(const KnownBits &a)
{
    constexpr Word sign = 0x80000000u;
    if (a.knownMask() & sign)
        return ratioBounds(nvEncodeKnownBits(a));
    // Unknown sign: analyze the two sign cases separately and hull.
    KnownBits nonNeg = a;
    nonNeg.knownZero |= sign;
    nonNeg = nonNeg.normalized();
    KnownBits neg = a;
    neg.knownOne |= sign;
    neg = neg.normalized();
    RatioBound bound{1.0, 0.0};
    bool any = false;
    for (const KnownBits &half : {nonNeg, neg}) {
        if (half.empty())
            continue;
        bound = hull(bound, ratioBounds(nvEncodeKnownBits(half)));
        any = true;
    }
    return any ? bound : RatioBound{0.0, 1.0};
}

int
agreeKnownCount(const KnownBits &a, const KnownBits &b)
{
    return hammingWeight((a.knownZero & b.knownZero)
                         | (a.knownOne & b.knownOne));
}

RatioBound
xnorRatioBounds(const KnownBits &a, const KnownBits &b)
{
    const int disagree = hammingWeight((a.knownZero & b.knownOne)
                                       | (a.knownOne & b.knownZero));
    return {agreeKnownCount(a, b) / 32.0, (32 - disagree) / 32.0};
}

} // namespace bvf::analysis
