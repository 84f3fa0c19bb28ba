/**
 * @file
 * Kernel assembler / disassembler implementation.
 */

#include "isa/asm.hh"

#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace bvf::isa
{

namespace
{

/** Image-size cap in words; large enough for every suite kernel. */
constexpr std::int64_t kMaxImageWords = 1 << 20;

/** Instruction-count cap; matches what a bytecode frame can carry. */
constexpr std::size_t kMaxBodyInstructions = 1u << 16;

const char *const kSpecialRegNames[6] = {
    "SR_LANEID", "SR_WARPID", "SR_TIDX",
    "SR_CTAIDX", "SR_NTIDX",  "SR_GRIDDIMX",
};

const char *const kCmpNames[6] = {"LT", "LE", "GT", "GE", "EQ", "NE"};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_'
           || c == '.';
}

/**
 * One source line under parse. Every helper fails softly: the first
 * failure latches a message and later calls become no-ops, so call
 * sites can chain reads and check ok() once.
 */
class LineCursor
{
  public:
    explicit LineCursor(std::string_view text) : text_(text) {}

    bool ok() const { return ok_; }
    const std::string &what() const { return what_; }

    void
    fail(std::string message)
    {
        if (ok_) {
            ok_ = false;
            what_ = std::move(message);
        }
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
            ++pos_;
        }
    }

    bool
    atEnd()
    {
        skipWs();
        return pos_ >= text_.size();
    }

    char
    peek()
    {
        skipWs();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (!tryConsume(c))
            fail(strFormat("expected '%c'", c));
    }

    bool
    tryConsume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    /** Everything left on the line, without surrounding whitespace. */
    std::string
    rest()
    {
        skipWs();
        std::size_t end = text_.size();
        while (end > pos_
               && (text_[end - 1] == ' ' || text_[end - 1] == '\t')) {
            --end;
        }
        const std::string out(text_.substr(pos_, end - pos_));
        pos_ = text_.size();
        return out;
    }

    /** Identifier: [A-Za-z0-9_.]+ (empty = failure). */
    std::string
    ident()
    {
        skipWs();
        const std::size_t start = pos_;
        while (pos_ < text_.size() && isIdentChar(text_[pos_]))
            ++pos_;
        if (pos_ == start) {
            fail("expected an identifier");
            return {};
        }
        return std::string(text_.substr(start, pos_ - start));
    }

    /**
     * Signed integer, decimal or 0x hex. Magnitudes are capped at
     * 2^32 - 1 so accumulation cannot overflow; callers range-check
     * further.
     */
    std::int64_t
    integer()
    {
        skipWs();
        bool neg = false;
        if (tryConsume('-'))
            neg = true;
        else
            (void)tryConsume('+');
        skipWs();
        std::int64_t base = 10;
        if (pos_ + 1 < text_.size() && text_[pos_] == '0'
            && (text_[pos_ + 1] == 'x' || text_[pos_ + 1] == 'X')) {
            base = 16;
            pos_ += 2;
        }
        std::int64_t value = 0;
        std::size_t digits = 0;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            int d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (base == 16 && c >= 'a' && c <= 'f')
                d = c - 'a' + 10;
            else if (base == 16 && c >= 'A' && c <= 'F')
                d = c - 'A' + 10;
            else
                break;
            value = value * base + d;
            ++digits;
            ++pos_;
            if (value > 0xffffffffll) {
                fail("number out of range");
                return 0;
            }
        }
        if (digits == 0) {
            fail("expected a number");
            return 0;
        }
        return neg ? -value : value;
    }

    /** 32-bit word (for image data); negatives wrap like C casts. */
    Word
    word()
    {
        const std::int64_t v = integer();
        if (!ok_)
            return 0;
        if (v < std::numeric_limits<std::int32_t>::min()
            || v > 0xffffffffll) {
            fail("word out of range");
            return 0;
        }
        return static_cast<Word>(static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(v)));
    }

    /** 32-bit signed immediate. */
    std::int32_t
    imm32()
    {
        const std::int64_t v = integer();
        if (!ok_)
            return 0;
        if (v < std::numeric_limits<std::int32_t>::min()
            || v > std::numeric_limits<std::int32_t>::max()) {
            fail("immediate out of range");
            return 0;
        }
        return static_cast<std::int32_t>(v);
    }

    /** Register operand "R<n>", n in [0, 255]. */
    std::uint8_t
    reg()
    {
        return indexed('R', "register");
    }

    /** Predicate operand "P<n>", n in [0, 255]. */
    std::uint8_t
    pred()
    {
        return indexed('P', "predicate");
    }

    void
    expectEnd()
    {
        if (!atEnd())
            fail("trailing operands");
    }

  private:
    std::uint8_t
    indexed(char prefix, const char *kind)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != prefix) {
            fail(strFormat("expected a %s (%c<n>)", kind, prefix));
            return 0;
        }
        ++pos_;
        if (pos_ >= text_.size()
            || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            fail(strFormat("expected a %s index", kind));
            return 0;
        }
        const std::int64_t n = integer();
        if (!ok_)
            return 0;
        if (n < 0 || n > 255) {
            fail(strFormat("%s index out of range", kind));
            return 0;
        }
        return static_cast<std::uint8_t>(n);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string what_;
};

struct SourceLine
{
    int number = 0;    //!< 1-based line number in the input
    std::string text;  //!< comment-stripped, trimmed
};

/** Comment-strip and trim every line, keeping line numbers. */
std::vector<SourceLine>
splitLines(std::string_view text)
{
    std::vector<SourceLine> lines;
    int number = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        const bool last = end == std::string_view::npos;
        if (last)
            end = text.size();
        std::string_view line = text.substr(start, end - start);
        ++number;
        start = end + 1;

        if (const auto slash = line.find("//");
            slash != std::string_view::npos) {
            line = line.substr(0, slash);
        }
        std::size_t b = 0;
        while (b < line.size()
               && (line[b] == ' ' || line[b] == '\t' || line[b] == '\r')) {
            ++b;
        }
        std::size_t e = line.size();
        while (e > b
               && (line[e - 1] == ' ' || line[e - 1] == '\t'
                   || line[e - 1] == '\r')) {
            --e;
        }
        line = line.substr(b, e - b);
        if (!line.empty() && line[0] != '#')
            lines.push_back({number, std::string(line)});
        if (last)
            break;
    }
    return lines;
}

bool
isLabelLine(const std::string &text)
{
    if (text.size() < 2 || text.back() != ':')
        return false;
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        if (!isIdentChar(text[i]))
            return false;
    }
    return true;
}

Opcode
opcodeFromMnemonic(const std::string &m)
{
    for (std::size_t op = 0; op < opcodeTable.size(); ++op) {
        if (m == opcodeTable[op].name)
            return static_cast<Opcode>(op);
    }
    return Opcode::NumOpcodes;
}

class Assembler
{
  public:
    explicit Assembler(std::string_view text) : lines_(splitLines(text))
    {
    }

    Result<Program>
    run()
    {
        collectLabels();
        for (const SourceLine &line : lines_) {
            if (failed_)
                break;
            if (isLabelLine(line.text))
                continue;
            if (line.text[0] == '.')
                directive(line);
            else
                instruction(line);
        }
        if (failed_)
            return error_;
        return std::move(prog_);
    }

  private:
    void
    fail(int line, const std::string &what)
    {
        if (!failed_) {
            failed_ = true;
            error_ = Error{ErrorCode::InvalidArgument,
                           strFormat("asm line %d: %s", line,
                                     what.c_str())};
        }
    }

    void
    collectLabels()
    {
        int index = 0;
        for (const SourceLine &line : lines_) {
            if (isLabelLine(line.text)) {
                const std::string name =
                    line.text.substr(0, line.text.size() - 1);
                if (labels_.count(name)) {
                    fail(line.number,
                         "duplicate label '" + name + "'");
                    return;
                }
                labels_[name] = index;
            } else if (line.text[0] != '.') {
                ++index;
            }
        }
    }

    void
    directive(const SourceLine &line)
    {
        LineCursor cur(line.text);
        cur.expect('.');
        const std::string name = cur.ident();
        if (!cur.ok()) {
            fail(line.number, cur.what());
            return;
        }
        if (name == "kernel") {
            kernelName(line, cur);
        } else if (name == "launch") {
            launchDims(line, cur);
        } else if (name == "shared") {
            sharedSize(line, cur);
        } else if (name == "global" || name == "const"
                   || name == "texture") {
            imageSize(line, cur, name);
        } else if (name == "data") {
            imageData(line, cur);
        } else {
            fail(line.number, "unknown directive '." + name + "'");
        }
    }

    void
    kernelName(const SourceLine &line, LineCursor &cur)
    {
        // The name is the rest of the line verbatim (suite names carry
        // '+' and '-'), minus surrounding whitespace.
        const std::string name = cur.rest();
        if (name.empty()) {
            fail(line.number, "expected a kernel name");
            return;
        }
        prog_.name = name;
    }

    void
    launchDims(const SourceLine &line, LineCursor &cur)
    {
        const std::int64_t grid = cur.integer();
        const std::int64_t block = cur.integer();
        cur.expectEnd();
        if (!cur.ok()) {
            fail(line.number, cur.what());
            return;
        }
        if (grid < 0 || grid > std::numeric_limits<int>::max()
            || block < 0 || block > std::numeric_limits<int>::max()) {
            fail(line.number, "launch geometry out of range");
            return;
        }
        prog_.launch.gridBlocks = static_cast<int>(grid);
        prog_.launch.blockThreads = static_cast<int>(block);
    }

    void
    sharedSize(const SourceLine &line, LineCursor &cur)
    {
        const std::int64_t bytes = cur.integer();
        cur.expectEnd();
        if (!cur.ok()) {
            fail(line.number, cur.what());
            return;
        }
        if (bytes < 0 || bytes > 0xffffffffll) {
            fail(line.number, "shared size out of range");
            return;
        }
        prog_.sharedBytesPerBlock = static_cast<std::uint32_t>(bytes);
    }

    void
    imageSize(const SourceLine &line, LineCursor &cur,
              const std::string &space)
    {
        const std::int64_t words = cur.integer();
        cur.expectEnd();
        if (!cur.ok()) {
            fail(line.number, cur.what());
            return;
        }
        if (words < 0 || words > kMaxImageWords) {
            fail(line.number, "image size out of range");
            return;
        }
        imageFor(space)->assign(static_cast<std::size_t>(words), 0);
    }

    void
    imageData(const SourceLine &line, LineCursor &cur)
    {
        const std::string space = cur.ident();
        std::vector<Word> *image = cur.ok() ? imageFor(space) : nullptr;
        if (image == nullptr) {
            fail(line.number,
                 "expected 'global', 'const' or 'texture'");
            return;
        }
        const std::int64_t offset = cur.integer();
        if (!cur.ok()) {
            fail(line.number, cur.what());
            return;
        }
        if (offset < 0
            || static_cast<std::uint64_t>(offset) > image->size()) {
            fail(line.number, "data offset outside the image");
            return;
        }
        std::size_t at = static_cast<std::size_t>(offset);
        while (!cur.atEnd()) {
            const Word w = cur.word();
            if (!cur.ok()) {
                fail(line.number, cur.what());
                return;
            }
            if (at >= image->size()) {
                fail(line.number, "data runs past the image");
                return;
            }
            (*image)[at++] = w;
        }
    }

    std::vector<Word> *
    imageFor(const std::string &space)
    {
        if (space == "global")
            return &prog_.global;
        if (space == "const")
            return &prog_.constants;
        if (space == "texture")
            return &prog_.texture;
        return nullptr;
    }

    /** Branch target: a label name or a bare instruction index. */
    std::int32_t
    target(LineCursor &cur)
    {
        const char c = cur.peek();
        if (c == '-' || c == '+'
            || std::isdigit(static_cast<unsigned char>(c))) {
            return cur.imm32();
        }
        const std::string name = cur.ident();
        if (!cur.ok())
            return 0;
        const auto it = labels_.find(name);
        if (it == labels_.end()) {
            cur.fail("unknown label '" + name + "'");
            return 0;
        }
        return it->second;
    }

    /** Immediate-or-register srcB: "#<imm>" or "R<n>". */
    void
    srcBOperand(LineCursor &cur, Instruction &instr)
    {
        if (cur.tryConsume('#')) {
            instr.immB = true;
            instr.imm = cur.imm32();
        } else {
            instr.srcB = cur.reg();
        }
    }

    /** "[R<n> + <imm>]" / "[R<n> - <imm>]". */
    void
    memOperand(LineCursor &cur, Instruction &instr)
    {
        cur.expect('[');
        instr.srcA = cur.reg();
        bool negate = false;
        if (cur.tryConsume('-'))
            negate = true;
        else
            cur.expect('+');
        const std::int64_t v = cur.integer();
        cur.expect(']');
        if (!cur.ok())
            return;
        // Negated magnitudes reach one past INT32_MAX, so INT32_MIN
        // offsets still render and reparse.
        const std::int64_t off = negate ? -v : v;
        if (off < std::numeric_limits<std::int32_t>::min()
            || off > std::numeric_limits<std::int32_t>::max()) {
            cur.fail("address offset out of range");
            return;
        }
        instr.imm = static_cast<std::int32_t>(off);
    }

    void
    instruction(const SourceLine &line)
    {
        if (prog_.body.size() >= kMaxBodyInstructions) {
            fail(line.number, "kernel body too large");
            return;
        }
        LineCursor cur(line.text);
        Instruction instr;

        if (cur.tryConsume('@')) {
            instr.predNegate = cur.tryConsume('!');
            instr.pred = cur.pred();
        }

        std::string mnemonic = cur.ident();
        if (!cur.ok()) {
            fail(line.number, cur.what());
            return;
        }
        std::string suffix;
        if (const auto dot = mnemonic.find('.');
            dot != std::string::npos) {
            suffix = mnemonic.substr(dot + 1);
            mnemonic = mnemonic.substr(0, dot);
        }
        const Opcode op = opcodeFromMnemonic(mnemonic);
        if (op == Opcode::NumOpcodes) {
            fail(line.number, "unknown mnemonic '" + mnemonic + "'");
            return;
        }
        instr.op = op;
        if (!suffix.empty() && operandForm(op) != OperandForm::Compare) {
            // Appended in steps, as in Error::describe.
            std::string what = "'";
            what += opcodeName(op);
            what += "' takes no suffix";
            fail(line.number, what);
            return;
        }

        switch (operandForm(op)) {
          case OperandForm::Compare: {
            int cmp = -1;
            for (int i = 0; i < 6; ++i) {
                if (suffix == kCmpNames[i])
                    cmp = i;
            }
            if (cmp < 0) {
                fail(line.number,
                     "SETP needs a .LT/.LE/.GT/.GE/.EQ/.NE suffix");
                return;
            }
            instr.flags = static_cast<std::uint8_t>(cmp);
            instr.dst = cur.pred();
            cur.expect(',');
            instr.srcA = cur.reg();
            cur.expect(',');
            srcBOperand(cur, instr);
            break;
          }
          case OperandForm::Special: {
            instr.dst = cur.reg();
            cur.expect(',');
            const std::string sr = cur.ident();
            int idx = -1;
            for (int i = 0; i < 6; ++i) {
                if (sr == kSpecialRegNames[i])
                    idx = i;
            }
            if (cur.ok() && idx < 0)
                cur.fail("unknown special register '" + sr + "'");
            if (idx >= 0)
                instr.flags = static_cast<std::uint8_t>(idx);
            break;
          }
          case OperandForm::DstB:
            instr.dst = cur.reg();
            cur.expect(',');
            srcBOperand(cur, instr);
            break;
          case OperandForm::DstA:
            instr.dst = cur.reg();
            cur.expect(',');
            instr.srcA = cur.reg();
            break;
          case OperandForm::Load:
            instr.dst = cur.reg();
            cur.expect(',');
            memOperand(cur, instr);
            break;
          case OperandForm::Store:
            memOperand(cur, instr);
            cur.expect(',');
            instr.srcB = cur.reg();
            break;
          case OperandForm::Branch: {
            instr.imm = target(cur);
            cur.expect(',');
            const std::string kw = cur.ident();
            if (cur.ok() && kw != "join")
                cur.fail("expected 'join=<target>'");
            cur.expect('=');
            instr.reconv = target(cur);
            break;
          }
          case OperandForm::Bare:
            break;
          case OperandForm::DstAB:
            instr.dst = cur.reg();
            cur.expect(',');
            instr.srcA = cur.reg();
            cur.expect(',');
            srcBOperand(cur, instr);
            break;
        }
        cur.expectEnd();
        if (!cur.ok()) {
            fail(line.number, cur.what());
            return;
        }
        prog_.body.push_back(instr);
    }

    std::vector<SourceLine> lines_;
    std::map<std::string, int> labels_;
    Program prog_;
    Error error_;
    bool failed_ = false;
};

// --- rendering ---------------------------------------------------------

std::string
renderOperandB(const Instruction &instr)
{
    if (instr.immB)
        return strFormat("#%d", instr.imm);
    return strFormat("R%u", unsigned(instr.srcB));
}

std::string
renderMem(const Instruction &instr)
{
    if (instr.imm < 0) {
        return strFormat("[R%u - %lld]", unsigned(instr.srcA),
                         -static_cast<long long>(instr.imm));
    }
    return strFormat("[R%u + %d]", unsigned(instr.srcA), instr.imm);
}

std::string
renderTarget(std::int32_t target, int bodySize)
{
    if (target >= 0 && target < bodySize)
        return strFormat("L%d", target);
    return strFormat("%d", target);
}

void
renderImage(std::ostringstream &os, const char *space,
            const std::vector<Word> &image)
{
    if (image.empty())
        return;
    os << '.' << space << ' ' << image.size() << '\n';
    std::size_t i = 0;
    while (i < image.size()) {
        if (image[i] == 0) {
            ++i;
            continue;
        }
        // One .data line per run of non-zero words, 8 words per line.
        std::size_t end = i;
        while (end < image.size() && image[end] != 0 && end - i < 8)
            ++end;
        os << ".data " << space << ' ' << i;
        for (; i < end; ++i)
            os << strFormat(" 0x%08x", image[i]);
        os << '\n';
    }
}

} // namespace

std::string
renderInstruction(const Instruction &instr, int bodySize)
{
    std::string out;
    if (readsGuard(instr)) {
        out += strFormat("@%sP%u ", instr.predNegate ? "!" : "",
                         unsigned(instr.pred));
    }
    const char *name = opcodeInfo(instr.op).name;
    switch (operandForm(instr.op)) {
      case OperandForm::Compare:
        out += strFormat("%s.%s P%u, R%u, %s", name,
                         instr.flags < 6 ? kCmpNames[instr.flags] : "??",
                         unsigned(instr.dst), unsigned(instr.srcA),
                         renderOperandB(instr).c_str());
        break;
      case OperandForm::Special:
        out += strFormat("%s R%u, %s", name, unsigned(instr.dst),
                         instr.flags < 6
                             ? kSpecialRegNames[instr.flags]
                             : "??");
        break;
      case OperandForm::DstB:
        out += strFormat("%s R%u, %s", name, unsigned(instr.dst),
                         renderOperandB(instr).c_str());
        break;
      case OperandForm::DstA:
        out += strFormat("%s R%u, R%u", name, unsigned(instr.dst),
                         unsigned(instr.srcA));
        break;
      case OperandForm::Load:
        out += strFormat("%s R%u, %s", name, unsigned(instr.dst),
                         renderMem(instr).c_str());
        break;
      case OperandForm::Store:
        out += strFormat("%s %s, R%u", name, renderMem(instr).c_str(),
                         unsigned(instr.srcB));
        break;
      case OperandForm::Branch:
        out += strFormat("%s %s, join=%s", name,
                         renderTarget(instr.imm, bodySize).c_str(),
                         renderTarget(instr.reconv, bodySize).c_str());
        break;
      case OperandForm::Bare:
        out += name;
        break;
      case OperandForm::DstAB:
        out += strFormat("%s R%u, R%u, %s", name, unsigned(instr.dst),
                         unsigned(instr.srcA),
                         renderOperandB(instr).c_str());
        break;
    }
    return out;
}

Result<Program>
parseAsm(std::string_view text)
{
    return Assembler(text).run();
}

std::string
renderAsm(const Program &program)
{
    std::ostringstream os;
    if (!program.name.empty())
        os << ".kernel " << program.name << '\n';
    os << ".launch " << program.launch.gridBlocks << ' '
       << program.launch.blockThreads << '\n';
    if (program.sharedBytesPerBlock)
        os << ".shared " << program.sharedBytesPerBlock << '\n';
    renderImage(os, "global", program.global);
    renderImage(os, "const", program.constants);
    renderImage(os, "texture", program.texture);

    const int size = static_cast<int>(program.body.size());
    std::vector<std::uint8_t> labelled(program.body.size(), 0);
    for (const Instruction &instr : program.body) {
        if (instr.op != Opcode::Bra)
            continue;
        if (instr.imm >= 0 && instr.imm < size)
            labelled[static_cast<std::size_t>(instr.imm)] = 1;
        if (instr.reconv >= 0 && instr.reconv < size)
            labelled[static_cast<std::size_t>(instr.reconv)] = 1;
    }
    os << '\n';
    for (int pc = 0; pc < size; ++pc) {
        if (labelled[static_cast<std::size_t>(pc)])
            os << 'L' << pc << ":\n";
        os << "    "
           << renderInstruction(
                  program.body[static_cast<std::size_t>(pc)], size)
           << '\n';
    }
    return os.str();
}

} // namespace bvf::isa
