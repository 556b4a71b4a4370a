//===- target/MachineDescription.cpp --------------------------------------===//

#include "target/MachineDescription.h"

#include <cstdio>

using namespace ccra;

std::string RegisterConfig::label() const {
  std::string Out = "(";
  Out.reserve(48); // four 10-digit counts, three commas, two parentheses
  for (unsigned Count :
       {IntCallerSave, FloatCallerSave, IntCalleeSave, FloatCalleeSave}) {
    if (Out.size() > 1)
      Out += ',';
    Out += std::to_string(Count);
  }
  Out += ')';
  return Out;
}

bool ccra::parseRegisterConfig(const std::string &Text, RegisterConfig &Out,
                               std::string *Err) {
  unsigned Ri, Rf, Ei, Ef;
  if (std::sscanf(Text.c_str(), "%u,%u,%u,%u", &Ri, &Rf, &Ei, &Ef) != 4) {
    if (Err)
      *Err = "bad config '" + Text + "', expected Ri,Rf,Ei,Ef";
    return false;
  }
  RegisterConfig Config(Ri, Rf, Ei, Ef);
  if (!Config.fitsRegisterMasks()) {
    if (Err)
      *Err = "config '" + Text + "' has a bank of more than " +
             std::to_string(RegisterConfig::MaxBankRegs) + " registers";
    return false;
  }
  Out = Config;
  return true;
}

RegisterConfig ccra::minimalMipsConfig() { return RegisterConfig(6, 4, 0, 0); }

RegisterConfig ccra::fullMipsConfig() { return RegisterConfig(18, 10, 8, 6); }

std::vector<RegisterConfig> ccra::standardConfigSweep() {
  return {
      RegisterConfig(6, 4, 0, 0),   // minimalMipsConfig()
      RegisterConfig(7, 5, 0, 0),   //
      RegisterConfig(8, 6, 0, 0),   //
      RegisterConfig(6, 4, 1, 1),   //
      RegisterConfig(7, 5, 1, 1),   //
      RegisterConfig(8, 6, 1, 1),   //
      RegisterConfig(8, 6, 2, 2),   //
      RegisterConfig(9, 7, 2, 2),   //
      RegisterConfig(9, 7, 3, 3),   //
      RegisterConfig(10, 8, 3, 3),  //
      RegisterConfig(10, 8, 4, 4),  //
      RegisterConfig(11, 8, 5, 4),  //
      RegisterConfig(12, 9, 5, 5),  //
      RegisterConfig(14, 9, 6, 5),  //
      RegisterConfig(16, 10, 7, 6), //
      RegisterConfig(17, 10, 8, 6), //
      RegisterConfig(18, 10, 8, 6), // fullMipsConfig()
  };
}
