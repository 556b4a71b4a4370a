//===- fuzz/Corpus.cpp ----------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ccra;
namespace fs = std::filesystem;

std::vector<CorpusEntry>
ccra::loadCorpusDir(const std::string &Dir, std::vector<std::string> &Errors) {
  std::vector<CorpusEntry> Entries;
  std::vector<std::string> Paths;
  std::error_code EC;
  if (fs::is_regular_file(Dir, EC))
    Paths.push_back(Dir);
  else if (fs::is_directory(Dir, EC))
    for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
      if (E.is_regular_file() && E.path().extension() == ".ccra")
        Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());

  for (const std::string &Path : Paths) {
    std::ifstream File(Path);
    if (!File) {
      Errors.push_back(Path + ": cannot open");
      continue;
    }
    std::ostringstream Buffer;
    Buffer << File.rdbuf();
    std::string Text = Buffer.str();

    std::vector<std::string> Header;
    {
      std::istringstream Lines(Text);
      std::string Line;
      while (std::getline(Lines, Line) && !Line.empty() && Line[0] == ';') {
        std::size_t Start = Line.find_first_not_of("; \t");
        Header.push_back(Start == std::string::npos ? ""
                                                    : Line.substr(Start));
      }
    }

    ParseResult R = parseModule(Text);
    if (!R.ok()) {
      for (const std::string &E : R.Errors)
        Errors.push_back(Path + ": " + E);
      continue;
    }
    std::vector<std::string> VerifyErrors;
    if (!verifyModule(*R.M, &VerifyErrors)) {
      Errors.push_back(Path + ": " +
                       (VerifyErrors.empty() ? "IR verification failed"
                                             : VerifyErrors.front()));
      continue;
    }
    Entries.push_back({Path, std::move(R.M), std::move(Header)});
  }
  return Entries;
}

std::string ccra::writeCorpusFile(const Module &M, const std::string &Dir,
                                  const std::string &Tag,
                                  const std::vector<std::string> &HeaderLines) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  std::string Path = (fs::path(Dir) / (Tag + ".ccra")).string();
  std::ofstream Out(Path);
  if (!Out)
    return "";
  for (const std::string &Line : HeaderLines)
    Out << "; " << Line << '\n';
  printModule(M, Out);
  return Out ? Path : "";
}

bool ccra::configFromHeader(const CorpusEntry &Entry, RegisterConfig &Config,
                            std::string *Err) {
  for (const std::string &Line : Entry.HeaderLines)
    if (Line.rfind("config: ", 0) == 0)
      return parseRegisterConfig(Line.substr(8), Config, Err);
  return true;
}
