#include "src/mks/loader/loader.h"

#include <gtest/gtest.h>

#include "src/mks/loader/module.h"
#include "tests/mk/kernel_test_fixture.h"

namespace mks {
namespace {

LoadModule MakeLib(const std::string& name, std::vector<ModuleSymbol> exports,
                   bool coerced = false) {
  LoadModule m;
  m.name = name;
  m.shared_library = true;
  m.coerced = coerced;
  m.text_size = 3 * 4096;
  m.data_size = 4096;
  m.bss_size = 4096;
  m.exports = std::move(exports);
  return m;
}

LoadModule MakeProgram(const std::string& name, std::vector<std::string> needed,
                       std::vector<ModuleImport> imports) {
  LoadModule m;
  m.name = name;
  m.text_size = 2 * 4096;
  m.data_size = 4096;
  m.needed = std::move(needed);
  m.imports = std::move(imports);
  m.data_image = {1, 2, 3, 4};
  return m;
}

class LoaderTest : public mk::KernelTest {
 protected:
  Loader loader_{kernel_};
};

TEST_F(LoaderTest, LoadsProgramWithDependencyClosure) {
  ASSERT_EQ(loader_.RegisterModule(MakeLib("libc.so", {{"printf", 0x40}})), base::Status::kOk);
  ASSERT_EQ(loader_.RegisterModule(
                MakeLib("libfs.so", {{"fs_open", 0x80}})),
            base::Status::kOk);
  LoadModule prog = MakeProgram("app", {"libfs.so"},
                                {{"libfs.so", "fs_open"}, {"libc.so", "printf"}});
  prog.needed.push_back("libc.so");
  ASSERT_EQ(loader_.RegisterModule(std::move(prog)), base::Status::kOk);

  mk::Task* task = kernel_.CreateTask("t");
  auto result = loader_.LoadProgram(*task, "app");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->modules, (std::vector<std::string>{"libfs.so", "libc.so", "app"}));
  ASSERT_TRUE(result->resolved.contains("printf"));
  EXPECT_EQ(result->resolved.at("printf").module, "libc.so");
  EXPECT_GT(result->resolved.at("printf").address, 0u);
}

TEST_F(LoaderTest, MissingDependencyFails) {
  ASSERT_EQ(loader_.RegisterModule(MakeProgram("app", {"libmissing.so"}, {})),
            base::Status::kOk);
  mk::Task* task = kernel_.CreateTask("t");
  EXPECT_EQ(loader_.LoadProgram(*task, "app").status(), base::Status::kNotFound);
}

TEST_F(LoaderTest, UnresolvedSymbolFails) {
  ASSERT_EQ(loader_.RegisterModule(MakeLib("libc.so", {{"printf", 0x40}})), base::Status::kOk);
  ASSERT_EQ(loader_.RegisterModule(
                MakeProgram("app", {"libc.so"}, {{"libc.so", "no_such_fn"}})),
            base::Status::kOk);
  mk::Task* task = kernel_.CreateTask("t");
  EXPECT_EQ(loader_.LoadProgram(*task, "app").status(), base::Status::kNotFound);
}

TEST_F(LoaderTest, SharedTextObjectIsReusedAcrossTasks) {
  ASSERT_EQ(loader_.RegisterModule(MakeLib("libshared.so", {{"fn", 0}})), base::Status::kOk);
  ASSERT_EQ(loader_.RegisterModule(MakeProgram("app", {"libshared.so"}, {})),
            base::Status::kOk);
  mk::Task* t1 = kernel_.CreateTask("t1");
  mk::Task* t2 = kernel_.CreateTask("t2");
  ASSERT_TRUE(loader_.LoadProgram(*t1, "app").ok());
  const uint64_t text_objects_after_first = loader_.text_objects_created();
  ASSERT_TRUE(loader_.LoadProgram(*t2, "app").ok());
  EXPECT_EQ(loader_.text_objects_created(), text_objects_after_first)
      << "second task must reuse the shared library's text object";
}

TEST_F(LoaderTest, CoercedLibraryLoadsAtSameAddressEverywhere) {
  ASSERT_EQ(loader_.RegisterModule(MakeLib("libpm.so", {{"pm_draw", 0x10}}, /*coerced=*/true)),
            base::Status::kOk);
  ASSERT_EQ(loader_.RegisterModule(
                MakeProgram("app", {"libpm.so"}, {{"libpm.so", "pm_draw"}})),
            base::Status::kOk);
  mk::Task* t1 = kernel_.CreateTask("t1");
  mk::Task* t2 = kernel_.CreateTask("t2");
  auto r1 = loader_.LoadProgram(*t1, "app");
  auto r2 = loader_.LoadProgram(*t2, "app");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->resolved.at("pm_draw").address, r2->resolved.at("pm_draw").address);
  EXPECT_GE(r1->resolved.at("pm_draw").address, mk::VmMap::kCoercedMin);
}

TEST_F(LoaderTest, RestrictedResolutionOnlySearchesNamedLibrary) {
  // Two libraries export the same symbol; under SVR4 global resolution the
  // first loaded wins, under restricted resolution the named library wins.
  ASSERT_EQ(loader_.RegisterModule(MakeLib("liba.so", {{"dup_fn", 0x10}})), base::Status::kOk);
  ASSERT_EQ(loader_.RegisterModule(MakeLib("libb.so", {{"dup_fn", 0x20}})), base::Status::kOk);
  LoadModule prog = MakeProgram("app", {"liba.so", "libb.so"}, {{"libb.so", "dup_fn"}});
  ASSERT_EQ(loader_.RegisterModule(std::move(prog)), base::Status::kOk);

  mk::Task* t1 = kernel_.CreateTask("t1");
  loader_.set_policy(ResolutionPolicy::kSvr4Global);
  auto global = loader_.LoadProgram(*t1, "app");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->resolved.at("dup_fn").module, "liba.so") << "global: load order wins";

  mk::Task* t2 = kernel_.CreateTask("t2");
  loader_.set_policy(ResolutionPolicy::kRestrictedPerLibrary);
  auto restricted = loader_.LoadProgram(*t2, "app");
  ASSERT_TRUE(restricted.ok());
  EXPECT_EQ(restricted->resolved.at("dup_fn").module, "libb.so")
      << "restricted: the import's named library wins";
}

TEST_F(LoaderTest, InitializedDataIsVisibleInTask) {
  ASSERT_EQ(loader_.RegisterModule(MakeProgram("app", {}, {})), base::Status::kOk);
  mk::Task* task = kernel_.CreateTask("t");
  auto result = loader_.LoadProgram(*task, "app");
  ASSERT_TRUE(result.ok());
  // Data segment sits after the text pages; first bytes are the data image.
  const hw::VirtAddr data = result->base + hw::PageRound(2 * 4096);
  uint8_t bytes[4] = {};
  ASSERT_EQ(kernel_.CopyIn(*task, data, bytes, 4), base::Status::kOk);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[3], 4);
}

}  // namespace
}  // namespace mks
