// TaskThreads — one thread per task, joined soon after the task ends. A
// finished thread nobody joins keeps its stack mapped, so a daemon with a
// thread per connection would hold one stack per connection it ever served.
// spawn() first joins the threads whose tasks have returned; join_all() joins
// the rest at shutdown. The serve admin plane and session listener use it.
#pragma once

#include <atomic>
#include <list>
#include <mutex>
#include <thread>
#include <utility>

namespace pnm::serve {

class TaskThreads {
 public:
  TaskThreads() = default;
  TaskThreads(const TaskThreads&) = delete;
  TaskThreads& operator=(const TaskThreads&) = delete;
  ~TaskThreads() { join_all(); }

  /// Join the threads whose tasks have returned, then run fn(args...) on a new one.
  template <class Fn, class... Args>
  void spawn(Fn&& fn, Args&&... args) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = tasks_.begin(); it != tasks_.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = tasks_.erase(it);
    }
    Task& task = tasks_.emplace_back();
    task.thread = std::thread(
        [&task, fn = std::forward<Fn>(fn)](auto&&... a) mutable {
          fn(std::forward<decltype(a)>(a)...);
          task.done.store(true, std::memory_order_release);
        },
        std::forward<Args>(args)...);
  }

  /// Join every thread. The joins run outside the lock: a task that is
  /// still finishing never waits on it.
  void join_all() {
    std::list<Task> tasks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks.swap(tasks_);
    }
    for (Task& task : tasks)
      if (task.thread.joinable()) task.thread.join();
  }

 private:
  struct Task {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::mutex mu_;
  std::list<Task> tasks_;  ///< stable addresses: each thread sets its own done
};

}  // namespace pnm::serve
