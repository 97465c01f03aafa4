use std::sync::Mutex;

pub struct Engine {
    registry: Mutex<u32>,
    queue: Mutex<u32>,
}

impl Engine {
    pub fn nested(&self) -> u32 {
        let registry = self.registry.lock().unwrap_or_else(|e| e.into_inner());
        // lint:allow(lock-discipline): fixture demonstrates waiver suppression
        let queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        *registry + *queue
    }
}
