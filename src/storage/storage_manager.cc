#include "storage/storage_manager.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "storage/async_io.h"

namespace kcpq {

void StorageManager::DoReadPagesAsync(const PageId* ids, size_t count,
                                      const AsyncReadCallback& callback) {
  // One task per page through the virtual ReadPage, so a decorated stack
  // (latency/retry/fault-injection/checksum) services async reads
  // identically to demand reads. Copy the ids out of the caller's span —
  // it may go out of scope before the tasks run.
  IoThreadPool& pool = IoThreadPool::Shared();
  for (size_t i = 0; i < count; ++i) {
    PageId id = ids[i];
    pool.Submit([this, id, callback] {
      AsyncPageRead done;
      done.id = id;
      done.status = ReadPage(id, &done.page, nullptr);
      callback(std::move(done));
    });
  }
}

}  // namespace kcpq
