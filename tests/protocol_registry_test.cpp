//===- tests/protocol_registry_test.cpp - Protocol registry tests ---------===//
//
// The name -> factory seam (core/ProtocolRegistry.h): canonical names,
// both dispatch faces (type-erased createProtocol and compile-time
// withProtocol), capability accessors, and the type-erased SyncBackend
// surface (tryLock / tryLockFor / inflateHint) for a thin-lock and a
// side-table protocol.
//
//===----------------------------------------------------------------------===//

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

using namespace thinlocks;

namespace {

class ProtocolRegistryTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("R", 0);
  }
  void TearDown() override { Registry.detach(Main); }

  Object *newObject() { return TheHeap.allocate(*Class); }
};

} // namespace

TEST_F(ProtocolRegistryTest, RegistryListsCanonicalNames) {
  const std::vector<std::string> &Names = registeredProtocolNames();
  ASSERT_GE(Names.size(), 4u);
  EXPECT_EQ(Names.front(), "ThinLock"); // The paper's contribution leads.
  for (const char *Required : {"ThinLock", "JDK111", "IBM112", "Fissile"}) {
    EXPECT_TRUE(isRegisteredProtocol(Required)) << Required;
  }
  EXPECT_FALSE(isRegisteredProtocol("NoSuchProtocol"));
  EXPECT_FALSE(isRegisteredProtocol(""));
  // The thin-lock manager's concept-level name reports its *policy*, not
  // the registry label — the registry is the canonical spelling.
  EXPECT_STREQ(ThinLockManager::protocolName(), "Dynamic");
}

TEST_F(ProtocolRegistryTest, CreateProtocolEveryRegisteredName) {
  for (const std::string &Name : registeredProtocolNames()) {
    std::unique_ptr<ProtocolHandle> Handle = createProtocol(Name);
    ASSERT_NE(Handle, nullptr) << Name;
    EXPECT_EQ(Handle->name(), Name);
    // The handle's backend must serve monitor semantics end to end.
    Object *Obj = newObject();
    SyncBackend &Sync = Handle->sync();
    Sync.lock(Obj, Main);
    EXPECT_TRUE(Sync.holdsLock(Obj, Main));
    EXPECT_TRUE(Sync.tryLock(Obj, Main)); // Recursive tryLock.
    EXPECT_EQ(Sync.lockDepth(Obj, Main), 2u);
    Sync.unlock(Obj, Main);
    EXPECT_EQ(Sync.tryLockFor(Obj, Main, 1'000'000),
              TimedLockStatus::Acquired);
    Sync.unlock(Obj, Main);
    Sync.unlock(Obj, Main);
    EXPECT_FALSE(Sync.holdsLock(Obj, Main));
  }
  EXPECT_EQ(createProtocol("NoSuchProtocol"), nullptr);
}

TEST_F(ProtocolRegistryTest, CapabilityAccessorsGateOnSubstrate) {
  std::unique_ptr<ProtocolHandle> Thin = createProtocol("ThinLock");
  ASSERT_NE(Thin, nullptr);
  EXPECT_NE(Thin->monitorTable(), nullptr);
  EXPECT_NE(Thin->thinLocks(), nullptr);
  for (const char *SideTable : {"JDK111", "IBM112", "Fissile"}) {
    std::unique_ptr<ProtocolHandle> Handle = createProtocol(SideTable);
    ASSERT_NE(Handle, nullptr) << SideTable;
    EXPECT_EQ(Handle->monitorTable(), nullptr) << SideTable;
    EXPECT_EQ(Handle->thinLocks(), nullptr) << SideTable;
  }
}

TEST_F(ProtocolRegistryTest, ProtocolConfigReachesThinLockSubstrate) {
  ProtocolConfig Config;
  Config.MonitorCapacity = 64;
  LockStats Stats;
  Config.Stats = &Stats;
  std::unique_ptr<ProtocolHandle> Handle =
      createProtocol("ThinLock", Config);
  ASSERT_NE(Handle, nullptr);
  ASSERT_NE(Handle->monitorTable(), nullptr);
  EXPECT_EQ(Handle->monitorTable()->capacity(), 64u);
  // An inflate hint (owner-only, like Object.wait) allocates a monitor.
  Object *Obj = newObject();
  Handle->sync().lock(Obj, Main);
  EXPECT_TRUE(Handle->sync().inflateHint(Obj, Main));
  Handle->sync().unlock(Obj, Main);
  EXPECT_GT(Handle->monitorTable()->occupancy(), 0.0);
}

TEST_F(ProtocolRegistryTest, InflateHintDegradesGracefully) {
  // Side-table protocols have no inflation notion: the hint must report
  // false (so callers can fall back) and change nothing.
  std::unique_ptr<ProtocolHandle> Handle = createProtocol("Fissile");
  ASSERT_NE(Handle, nullptr);
  Object *Obj = newObject();
  EXPECT_FALSE(Handle->sync().inflateHint(Obj, Main));
}

TEST_F(ProtocolRegistryTest, WithProtocolDispatchesConcreteType) {
  // The compile-time face hands the callback the *concrete* protocol:
  // concept-level protocolName() must match the type, and the handle
  // must agree on the registry name.
  bool SawFissile = false;
  bool Ran = withProtocol(
      "Fissile", ProtocolConfig(),
      [&](auto &Protocol, ProtocolHandle &Handle) {
        using P = std::decay_t<decltype(Protocol)>;
        static_assert(SyncProtocol<P>);
        if constexpr (std::is_same_v<P, FissileLock>)
          SawFissile = true;
        EXPECT_STREQ(Handle.name(), "Fissile");
        Object *Obj = newObject();
        Protocol.lock(Obj, Main);
        EXPECT_TRUE(Protocol.holdsLock(Obj, Main));
        Protocol.unlock(Obj, Main);
      });
  EXPECT_TRUE(Ran);
  EXPECT_TRUE(SawFissile);
  EXPECT_FALSE(withProtocol("NoSuchProtocol", ProtocolConfig(),
                            [](auto &, ProtocolHandle &) {}));
}

