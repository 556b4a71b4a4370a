//===- fuzz/Corpus.h - Reproducer corpus I/O --------------------*- C++ -*-===//
///
/// \file
/// The on-disk side of the fuzz harness. A corpus directory holds `.ccra`
/// textual IR modules (ir/IRParser.h grammar; `;` lines are comments, so
/// reproducers carry their provenance — seed, profile, register config,
/// failing oracles — in a header the parser ignores). The committed seed
/// corpus under `fuzz/corpus/` replays through the oracle lattice as a
/// tier-1 test suite; `ccra_fuzz` appends minimized reproducers for any
/// new mismatch it finds.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_FUZZ_CORPUS_H
#define CCRA_FUZZ_CORPUS_H

#include "ir/Module.h"
#include "target/MachineDescription.h"

#include <memory>
#include <string>
#include <vector>

namespace ccra {

struct CorpusEntry {
  std::string Path;
  std::unique_ptr<Module> M;
  /// Leading `;` comment lines (without the marker), i.e. the provenance
  /// header writeCorpusFile emitted. Replay uses the "config: Ri,Rf,Ei,Ef"
  /// line to re-run a reproducer under its original register file.
  std::vector<std::string> HeaderLines;
};

/// Loads every `.ccra` file under \p Dir (sorted by filename, so replay
/// order is stable), or \p Dir itself when it names a file. Files that
/// fail to parse or IR-verify are reported in \p Errors and skipped. A
/// missing path is not an error — it is an empty corpus.
std::vector<CorpusEntry> loadCorpusDir(const std::string &Dir,
                                       std::vector<std::string> &Errors);

/// Writes \p M to `Dir/<Tag>.ccra` (creating \p Dir if needed) with
/// \p HeaderLines emitted as leading `;` comments. Returns the path
/// written, or "" on I/O failure.
std::string writeCorpusFile(const Module &M, const std::string &Dir,
                            const std::string &Tag,
                            const std::vector<std::string> &HeaderLines);

/// Applies \p Entry's "config: Ri,Rf,Ei,Ef" header line, if it has one,
/// to \p Config. False, with parseRegisterConfig's reason in \p Err, when
/// that line names no usable configuration.
bool configFromHeader(const CorpusEntry &Entry, RegisterConfig &Config,
                      std::string *Err = nullptr);

} // namespace ccra

#endif // CCRA_FUZZ_CORPUS_H
