// Load-module format for the Microkernel Services loader: a simplified ELF
// ("we chose the ELF format") with text/data/bss segments, an export symbol
// table, and import lists. Modules are registered with the loader in memory;
// no on-disk image format is modelled.
#ifndef SRC_MKS_LOADER_MODULE_H_
#define SRC_MKS_LOADER_MODULE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mks {

struct ModuleSymbol {
  std::string name;
  uint32_t offset = 0;  // relative to the module's load base
};

struct ModuleImport {
  std::string library;  // which library the symbol is expected from
  std::string symbol;
};

struct LoadModule {
  std::string name;
  bool shared_library = false;
  bool coerced = false;  // address-coerced shared library (same base everywhere)
  uint32_t text_size = 0;
  uint32_t data_size = 0;
  uint32_t bss_size = 0;
  std::vector<uint8_t> data_image;  // initialized-data contents (<= data_size)
  std::vector<ModuleSymbol> exports;
  std::vector<ModuleImport> imports;
  std::vector<std::string> needed;  // libraries to load first
};

}  // namespace mks

#endif  // SRC_MKS_LOADER_MODULE_H_
