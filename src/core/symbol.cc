#include "src/core/symbol.h"

namespace pivot {

SymbolId SymbolTable::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;

  uint32_t id = count_.load(std::memory_order_relaxed);
  size_t chunk_index = id >> kChunkBits;
  size_t slot = id & (kChunkSize - 1);
  if (chunk_index >= kMaxChunks) return kInvalidSymbol;  // Table full (4M names).

  Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_index].store(chunk, std::memory_order_release);
  }
  (*chunk)[slot] = std::string(name);
  ids_.emplace(std::string_view((*chunk)[slot]), id);
  // Publish after the name is in place so lock-free NameOf readers racing with
  // this insert either see id >= size() or a fully-constructed string.
  count_.store(id + 1, std::memory_order_release);
  return id;
}

SymbolId SymbolTable::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidSymbol : it->second;
}

std::string_view SymbolTable::NameOf(SymbolId id) const {
  if (id >= count_.load(std::memory_order_acquire)) return {};
  const Chunk* chunk = chunks_[id >> kChunkBits].load(std::memory_order_acquire);
  if (chunk == nullptr) return {};
  return (*chunk)[id & (kChunkSize - 1)];
}

SymbolTable& SymbolTable::Global() {
  static SymbolTable* table = new SymbolTable();  // Leaked: outlives all users.
  return *table;
}

}  // namespace pivot
