//===- target/MachineDescription.h - Register configurations ----*- C++ -*-===//
///
/// \file
/// The machine model of the paper's evaluation (§3.2): a MIPS-like target
/// with two register banks (integer and floating-point), each split by the
/// calling convention into caller-save and callee-save registers. A
/// RegisterConfig is one point (Ri,Rf,Ei,Ef) of the paper's evaluation
/// grid: Ri/Rf caller-save and Ei/Ef callee-save registers in the
/// int/float bank respectively.
///
/// Register indices are laid out caller-save first: in a bank with C
/// caller-save and E callee-save registers, indices [0,C) are caller-save
/// and [C,C+E) are callee-save.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_TARGET_MACHINEDESCRIPTION_H
#define CCRA_TARGET_MACHINEDESCRIPTION_H

#include "ir/Register.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccra {

/// One calling-convention split of the two register files:
/// (Ri,Rf) caller-save and (Ei,Ef) callee-save registers.
struct RegisterConfig {
  /// The widest bank the allocators support: color assignment tracks a
  /// bank's taken registers in one 64-bit mask.
  static constexpr unsigned MaxBankRegs = 64;

  unsigned IntCallerSave = 0;
  unsigned FloatCallerSave = 0;
  unsigned IntCalleeSave = 0;
  unsigned FloatCalleeSave = 0;

  RegisterConfig() = default;
  RegisterConfig(unsigned Ri, unsigned Rf, unsigned Ei, unsigned Ef)
      : IntCallerSave(Ri), FloatCallerSave(Rf), IntCalleeSave(Ei),
        FloatCalleeSave(Ef) {}

  unsigned callerCount(RegBank Bank) const {
    return Bank == RegBank::Int ? IntCallerSave : FloatCallerSave;
  }
  unsigned calleeCount(RegBank Bank) const {
    return Bank == RegBank::Int ? IntCalleeSave : FloatCalleeSave;
  }
  unsigned totalCount(RegBank Bank) const {
    return callerCount(Bank) + calleeCount(Bank);
  }

  /// True when neither bank holds more than MaxBankRegs registers (summed
  /// without wrapping). Every entry point rejects other configurations.
  bool fitsRegisterMasks() const {
    return std::uint64_t(IntCallerSave) + IntCalleeSave <= MaxBankRegs &&
           std::uint64_t(FloatCallerSave) + FloatCalleeSave <= MaxBankRegs;
  }

  /// "(Ri,Rf,Ei,Ef)" — the notation used throughout the benches.
  std::string label() const;

  bool operator==(const RegisterConfig &Other) const {
    return IntCallerSave == Other.IntCallerSave &&
           FloatCallerSave == Other.FloatCallerSave &&
           IntCalleeSave == Other.IntCalleeSave &&
           FloatCalleeSave == Other.FloatCalleeSave;
  }
  bool operator!=(const RegisterConfig &Other) const {
    return !(*this == Other);
  }
};

/// Parses "Ri,Rf,Ei,Ef" (the --config flag and the wire's config line)
/// into \p Out. Fails, with a message in \p Err, on anything else and on a
/// bank wider than RegisterConfig::MaxBankRegs.
bool parseRegisterConfig(const std::string &Text, RegisterConfig &Out,
                         std::string *Err = nullptr);

/// Answers every register-kind question the allocators ask about one
/// RegisterConfig. Cheap to copy; all queries are O(1).
class MachineDescription {
public:
  MachineDescription() = default;
  MachineDescription(RegisterConfig Config) : Config(Config) {}

  const RegisterConfig &config() const { return Config; }

  unsigned numRegs(RegBank Bank) const { return Config.totalCount(Bank); }
  unsigned callerCount(RegBank Bank) const {
    return Config.callerCount(Bank);
  }
  unsigned calleeCount(RegBank Bank) const {
    return Config.calleeCount(Bank);
  }

  /// The \p I'th caller-save register of \p Bank (I < callerCount(Bank)).
  PhysReg callerSaveReg(RegBank Bank, unsigned I) const {
    return PhysReg(Bank, I);
  }
  /// The \p I'th callee-save register of \p Bank (I < calleeCount(Bank)).
  PhysReg calleeSaveReg(RegBank Bank, unsigned I) const {
    return PhysReg(Bank, Config.callerCount(Bank) + I);
  }

  bool isCallerSave(PhysReg Reg) const {
    return Reg.isValid() && Reg.Index < Config.callerCount(Reg.Bank);
  }
  bool isCalleeSave(PhysReg Reg) const {
    return Reg.isValid() && Reg.Index >= Config.callerCount(Reg.Bank) &&
           Reg.Index < Config.totalCount(Reg.Bank);
  }

private:
  RegisterConfig Config;
};

// The paper's evaluation grid. --------------------------------------------

/// The smallest configuration of the sweep: (6,4,0,0) — six integer and
/// four float caller-save registers, no callee-save registers.
RegisterConfig minimalMipsConfig();

/// The full MIPS-like register file: (18,10,8,6).
RegisterConfig fullMipsConfig();

/// The 17 register configurations the reproduction sweeps, from
/// minimalMipsConfig() up to fullMipsConfig(), growing both the file sizes
/// and the callee-save share.
std::vector<RegisterConfig> standardConfigSweep();

} // namespace ccra

#endif // CCRA_TARGET_MACHINEDESCRIPTION_H
