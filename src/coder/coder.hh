/**
 * @file
 * Coder interfaces for BVF optimization.
 *
 * A BVF coder is an invertible transformation f: B -> E over bit strings
 * whose objective is to maximize the Hamming weight of E (Section 3.3 of
 * the paper). All three proposed coders are XNOR-based and self-inverse,
 * but the interfaces below allow non-involutive codes (e.g. the
 * bus-invert baseline) as well.
 *
 * Two granularities exist:
 *  - WordCoder: per-32-bit-word transforms (narrow value, identity);
 *  - BlockCoder: transforms over a block of words with intra-block
 *    structure (value similarity across warp lanes / cache-line
 *    elements).
 * Instruction-stream coders operate on 64-bit encodings and live in
 * isa_coder.hh.
 */

#ifndef BVF_CODER_CODER_HH
#define BVF_CODER_CODER_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bitops.hh"

namespace bvf::coder
{

/** Per-word invertible transform. */
class WordCoder
{
  public:
    virtual ~WordCoder() = default;

    /** Encode one word (baseline -> BVF-space form). */
    virtual Word encode(Word w) const = 0;

    /** Decode one word (BVF-space form -> baseline). */
    virtual Word decode(Word e) const = 0;

    /** Display name. */
    virtual std::string name() const = 0;

    /** Encode a span in place. */
    void
    encodeSpan(std::span<Word> words) const
    {
        for (Word &w : words)
            w = encode(w);
    }

    /** Decode a span in place. */
    void
    decodeSpan(std::span<Word> words) const
    {
        for (Word &w : words)
            w = decode(w);
    }
};

/** Block-structured invertible transform (e.g. across warp lanes). */
class BlockCoder
{
  public:
    virtual ~BlockCoder() = default;

    /** Encode @p block in place. */
    virtual void encode(std::span<Word> block) const = 0;

    /** Decode @p block in place. */
    virtual void decode(std::span<Word> block) const = 0;

    virtual std::string name() const = 0;
};

/** The identity word coder (the baseline "no BVF" configuration). */
class IdentityCoder : public WordCoder
{
  public:
    Word encode(Word w) const override { return w; }
    Word decode(Word e) const override { return e; }
    std::string name() const override { return "identity"; }
};

/**
 * Ordered composition of block/word transforms over a block of words.
 *
 * encode applies stages front-to-back; decode back-to-front. Used to
 * model units covered by several overlapping BVF spaces (e.g. registers
 * under both NV and VS coders).
 */
class CoderChain
{
  public:
    CoderChain() = default;

    /** Append a word-coder stage (applied to every word of the block). */
    void addWord(std::shared_ptr<const WordCoder> coder);

    /** Append a block-coder stage. */
    void addBlock(std::shared_ptr<const BlockCoder> coder);

    /** Append every stage of @p other (stages are shared, not copied). */
    void append(const CoderChain &other);

    /** Encode a block in place through all stages. */
    void encode(std::span<Word> block) const;

    /** Decode a block in place through all stages, reversed. */
    void decode(std::span<Word> block) const;

    /** Stage count. */
    std::size_t size() const { return stages_.size(); }

    bool empty() const { return stages_.empty(); }

    /** Same coder objects in the same order. */
    bool operator==(const CoderChain &other) const = default;

    /** "nv+vs(21)" style description. */
    std::string name() const;

  private:
    struct Stage
    {
        std::shared_ptr<const WordCoder> word;
        std::shared_ptr<const BlockCoder> block;

        bool operator==(const Stage &other) const = default;
    };

    std::vector<Stage> stages_;
};

} // namespace bvf::coder

#endif // BVF_CODER_CODER_HH
