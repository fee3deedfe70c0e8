#include "server/session.h"

#include "obs/clock.h"

namespace gpml {
namespace server {

std::shared_ptr<ServerSession> SessionRegistry::Create(
    const std::string& tenant, obs::Counter* steps_counter) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  auto session = std::make_shared<ServerSession>(id, tenant, steps_counter);
  session->last_active_us = obs::MonotonicMicros();
  sessions_[id] = session;
  return session;
}

void SessionRegistry::Remove(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

std::shared_ptr<ServerSession> SessionRegistry::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::shared_ptr<ServerSession>> SessionRegistry::ReapIdle(
    uint64_t now_us, uint64_t idle_us) {
  std::vector<std::shared_ptr<ServerSession>> reaped;
  for (const std::shared_ptr<ServerSession>& session : Snapshot()) {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->expired || session->in_flight > 0) continue;
    // Unsigned: a clock stamped after `now_us` was sampled must not wrap
    // into a huge idle time.
    if (session->last_active_us >= now_us ||
        now_us - session->last_active_us < idle_us) {
      continue;
    }
    session->expired = true;
    session->statements.clear();
    session->cursors.clear();
    session->graph.reset();
    reaped.push_back(session);
  }
  return reaped;
}

std::vector<std::shared_ptr<ServerSession>> SessionRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<ServerSession>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

}  // namespace server
}  // namespace gpml
