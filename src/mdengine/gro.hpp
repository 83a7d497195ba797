// GROMACS .gro structure format I/O.
//
// The paper's pipeline hands structures between insane, GROMACS, backward
// and ParmEd in standard file formats; our systems export/import real .gro
// text so artifacts can be inspected with standard tools (VMD, gmx).
// Fixed-column format: "%5d%-5s%5s%5d%8.3f%8.3f%8.3f%8.4f%8.4f%8.4f".
#pragma once

#include <string>
#include <vector>

#include "mdengine/system.hpp"

namespace mummi::md {

/// Names used for residue/atom columns; index = particle type id.
/// Types beyond the table get "X<type>".
struct GroNaming {
  std::vector<std::string> type_names;
  [[nodiscard]] std::string name_for(int type) const {
    if (type >= 0 && static_cast<std::size_t>(type) < type_names.size())
      return type_names[static_cast<std::size_t>(type)];
    // Appended rather than `"X" + std::to_string(type)`, on which GCC 12 at
    // -O3 raises a false -Wrestrict.
    std::string name = "X";
    name += std::to_string(type);
    return name;
  }
};

/// Serializes a system (positions + velocities + box) as .gro text.
[[nodiscard]] std::string write_gro(const System& system,
                                    const std::string& title,
                                    const GroNaming& naming = {});

/// Parsed .gro content: enough to rebuild a System skeleton (positions,
/// velocities, box; types resolved back through the naming table, -1 when
/// unknown).
struct GroFile {
  std::string title;
  std::vector<std::string> atom_names;
  std::vector<int> residue_ids;
  std::vector<Vec3> positions;
  std::vector<Vec3> velocities;
  Box box;
};

/// Parses .gro text. Throws util::FormatError on malformed input.
[[nodiscard]] GroFile parse_gro(const std::string& text);

}  // namespace mummi::md
