// Shared helpers for tests: tiny hand-built designs with known timing.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>

#include "common/error.h"
#include "extract/extract.h"
#include "liberty/repository.h"
#include "netlist/netlist.h"
#include "place/placer.h"

namespace doseopt::testing_support {

/// 64-bit FNV-1a over the little-endian bytes of each value added: pins a
/// stream of words or doubles to a recorded checksum.
class Fnv1a {
 public:
  void add(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A tiny fully-owned design: flop -> inv chain -> flop, placed on a small
/// die.  Deterministic, used by netlist/STA/dmopt tests.
struct TinyDesign {
  std::unique_ptr<liberty::LibraryRepository> repo;
  std::unique_ptr<netlist::Netlist> netlist;
  place::Die die;
  std::unique_ptr<place::Placement> placement;
  extract::Parasitics parasitics;
};

/// Build: ff0 -> g0 -> g1 -> ... -> g{chain-1} -> ff1 (all INVX1), plus a
/// primary input feeding a NAND2 with the mid-chain net, whose output is a
/// primary output.
inline TinyDesign make_chain_design(int chain_length = 4) {
  TinyDesign d;
  const tech::TechNode node = tech::make_tech_65nm();
  d.repo = std::make_unique<liberty::LibraryRepository>(node);
  d.netlist = std::make_unique<netlist::Netlist>("tiny", node.name,
                                                 &d.repo->masters());
  netlist::Netlist& nl = *d.netlist;
  auto idx = [&](const char* name) {
    for (std::size_t i = 0; i < d.repo->masters().size(); ++i)
      if (d.repo->masters()[i].name == name) return i;
    throw Error(std::string("missing master ") + name);
  };

  const netlist::NetId q0 = nl.add_net("q0");
  const netlist::CellId ff0 = nl.add_cell("ff0", idx("DFFX1"), q0);

  netlist::NetId prev = q0;
  for (int i = 0; i < chain_length; ++i) {
    const netlist::NetId out = nl.add_net("n" + std::to_string(i));
    const netlist::CellId g =
        nl.add_cell("g" + std::to_string(i), idx("INVX1"), out);
    nl.connect_input(g, 0, prev);
    prev = out;
  }

  const netlist::NetId d1 = nl.add_net("d1");
  const netlist::CellId ff1 = nl.add_cell("ff1", idx("DFFX1"), d1);
  // DFFX1 has one input (D); connect the chain end. ff1's output feeds a PO
  // so it is not dangling.  ff0 also recaptures the chain (a loop through
  // the flop, which is legal sequential structure).
  nl.connect_input(ff1, 0, prev);
  nl.connect_input(ff0, 0, prev);
  nl.mark_primary_output(d1);

  const netlist::NetId pi = nl.add_net("pi0");
  nl.mark_primary_input(pi);
  const netlist::NetId po = nl.add_net("po0");
  const netlist::CellId nand = nl.add_cell("u_nand", idx("NAND2X1"), po);
  nl.connect_input(nand, 0, pi);
  nl.connect_input(nand, 1, prev);
  nl.mark_primary_output(po);

  nl.validate();

  d.die = place::Die{20.0, 18.0, node.row_height_um, node.site_width_um};
  d.placement = std::make_unique<place::Placement>(
      place::initial_placement(nl, d.die, /*seed=*/1));
  d.parasitics = extract::extract(*d.placement, node);
  return d;
}

}  // namespace doseopt::testing_support
