/**
 * @file
 * The checked-in parser corpora as programs: every corpus input under
 * asm/, bytecode/ and opt/ that parses (asm) or decodes (the other two),
 * in directory and file-name order. The including test defines
 * BVF_CORPUS_DIR.
 */

#ifndef BVF_TESTS_CORPUS_PROGRAMS_HH
#define BVF_TESTS_CORPUS_PROGRAMS_HH

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "isa/program.hh"

namespace bvf::tests
{

struct CorpusProgram
{
    std::string name; //!< "target/file"
    isa::Program program;
};

/** Decoded bytes may name an opcode past the last one. */
inline bool
hasUnknownOpcode(const isa::Program &program)
{
    return std::any_of(program.body.begin(), program.body.end(),
                       [](const isa::Instruction &instr) {
                           return instr.op >= isa::Opcode::NumOpcodes;
                       });
}

inline std::vector<CorpusProgram>
corpusPrograms()
{
    std::vector<CorpusProgram> out;
    for (const char *target : {"asm", "bytecode", "opt"}) {
        const std::filesystem::path dir =
            std::filesystem::path(BVF_CORPUS_DIR) / target;
        std::vector<std::filesystem::path> files;
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            files.push_back(entry.path());
        std::sort(files.begin(), files.end());
        const bool text = std::string(target) == "asm";
        for (const auto &path : files) {
            std::ifstream in(path, std::ios::binary);
            const std::string bytes{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
            auto program =
                text ? isa::parseAsm(bytes) : isa::decodeProgram(bytes);
            if (program.ok()) {
                out.push_back({std::string(target) + "/"
                                   + path.filename().string(),
                               program.value()});
            }
        }
    }
    return out;
}

} // namespace bvf::tests

#endif // BVF_TESTS_CORPUS_PROGRAMS_HH
