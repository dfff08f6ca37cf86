//===- core/ProtocolRegistry.cpp - Name -> protocol factory ---------------===//

#include "core/ProtocolRegistry.h"

using namespace thinlocks;

// Out-of-line destructor anchors the vtable in this translation unit.
ProtocolHandle::~ProtocolHandle() = default;

std::unique_ptr<ProtocolHandle>
thinlocks::createProtocol(std::string_view Name,
                          const ProtocolConfig &Config) {
#define THINLOCKS_PROTOCOL_CASE(Type, RegistryName)                            \
  if (Name == RegistryName)                                                    \
    return std::make_unique<TypedProtocolHandle<Type>>(RegistryName, Config);
  THINLOCKS_FOR_EACH_PROTOCOL(THINLOCKS_PROTOCOL_CASE)
#undef THINLOCKS_PROTOCOL_CASE
  return nullptr;
}

const std::vector<std::string> &thinlocks::registeredProtocolNames() {
  static const std::vector<std::string> Names = {
#define THINLOCKS_PROTOCOL_CASE(Type, RegistryName) RegistryName,
      THINLOCKS_FOR_EACH_PROTOCOL(THINLOCKS_PROTOCOL_CASE)
#undef THINLOCKS_PROTOCOL_CASE
  };
  return Names;
}

bool thinlocks::isRegisteredProtocol(std::string_view Name) {
  for (const std::string &Registered : registeredProtocolNames())
    if (Name == Registered)
      return true;
  return false;
}
