/**
 * @file
 * Circuit-level exploration: compare memory-cell families across
 * supply voltages and column heights, the way an SRAM designer would
 * evaluate the BVF proposal -- including the eDRAM alternative of
 * Section 7.2 and the BVF-6T reliability cliff of Section 7.1.
 *
 * Usage: sram_designer [--node 28|40] [28|40]
 *
 * The technology node may be given either as the --node flag or as a
 * bare 28/40 token (the historical positional form).
 */

#include <cstdio>
#include <string>

#include "circuit/array_model.hh"
#include "circuit/read_disturb.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "core/eval_config.hh"

using namespace bvf;
using circuit::CellKind;

namespace
{

circuit::TechNode
parseNode(const std::string &flag, const std::string &value)
{
    return core::parseSpelling(flag, value, core::kNodeSpellings);
}

circuit::TechNode
parse(int argc, char **argv)
{
    circuit::TechNode node = circuit::TechNode::N28;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--node")
            node = parseNode(arg, args.value(arg));
        else if (arg.rfind("--", 0) == 0)
            cli::dieUsage("unknown option '" + arg + "'");
        else
            node = parseNode("node", arg);
    }
    return node;
}

} // namespace

int
main(int argc, char **argv)
{
    circuit::TechNode node;
    try {
        node = parse(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("sram_designer", e);
    }
    const auto &tech = circuit::techParams(node);

    // --- 1. per-bit energies across voltage --------------------------
    TextTable sweep(strFormat("Cell energies vs supply (%s, fJ/bit, "
                              "128 cells/bitline)",
                              circuit::techNodeName(node).c_str()));
    sweep.header({"Cell", "Vdd", "Read0", "Read1", "Write0", "Write1",
                  "Leak0[pW]", "Leak1[pW]"});
    for (const auto kind :
         {CellKind::Sram6T, CellKind::Sram8T, CellKind::SramBvf8T,
          CellKind::Edram3T}) {
        for (const double vdd : {1.2, 0.9, 0.6}) {
            const auto cell = circuit::makeCellModel(kind, tech, vdd);
            if (!cell->operatesAt(vdd))
                continue;
            sweep.row({circuit::cellKindName(kind),
                       TextTable::num(vdd, 1),
                       TextTable::num(toFemto(cell->readEnergy(0)), 2),
                       TextTable::num(toFemto(cell->readEnergy(1)), 2),
                       TextTable::num(toFemto(cell->writeEnergy(0)), 2),
                       TextTable::num(toFemto(cell->writeEnergy(1)), 2),
                       TextTable::num(cell->holdLeakage(0) * 1e12, 2),
                       TextTable::num(cell->holdLeakage(1) * 1e12, 2)});
        }
    }
    sweep.print();

    // --- 2. what the asymmetry is worth on typical data ---------------
    std::printf("\nEffective read energy per 32-bit word (22 zero bits "
                "raw vs 5 zero bits BVF-coded):\n");
    circuit::ArrayGeometry geom;
    geom.sets = 256;
    geom.blockBytes = 16;
    for (const auto kind :
         {CellKind::Sram6T, CellKind::Sram8T, CellKind::SramBvf8T}) {
        const circuit::ArrayModel array(kind, tech, tech.vddNominal,
                                        geom);
        const double raw = array.readBits(10, 32).total;
        const double coded = array.readBits(27, 32).total;
        std::printf("  %-8s raw %6.1f fJ   coded %6.1f fJ   (%+5.1f%%)\n",
                    circuit::cellKindName(kind).c_str(), toFemto(raw),
                    toFemto(coded), 100.0 * (coded / raw - 1.0));
    }

    // --- 3. the BVF-6T reliability cliff ------------------------------
    std::printf("\nBVF-6T read-disturb cliff (%s, 1.2V):\n",
                circuit::techNodeName(node).c_str());
    const circuit::ReadDisturbSim sim(tech, tech.vddNominal);
    const int threshold = sim.findFlipThreshold();
    std::printf("  columns up to %d cells/bitline are stable; beyond "
                "that a read-0 flips the cell\n",
                threshold - 1);
    std::printf("  => BVF-6T cannot build the dense arrays GPUs need; "
                "the decoupled 8T read port avoids the cliff entirely\n");
    return 0;
}
